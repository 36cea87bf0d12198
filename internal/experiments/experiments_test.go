package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func env(t testing.TB) *Env {
	t.Helper()
	e, err := BuildEnv(Small)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestE1(t *testing.T) {
	rep, err := E1EnumerateIndexes(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Enumerate Indexes") || !strings.Contains(rep, "total candidates") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE2(t *testing.T) {
	rep, err := E2EvaluateIndexes(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"none", "exact-quantity", "general-quantity", "qty+price"} {
		if !strings.Contains(rep, want) {
			t.Errorf("missing config %q in:\n%s", want, rep)
		}
	}
}

func TestE3(t *testing.T) {
	rep, err := E3GeneralizationDAG(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's content: the paper's generalized patterns must appear.
	if !strings.Contains(rep, "/site/regions/*/item/quantity") {
		t.Errorf("missing paper generalization in:\n%s", rep)
	}
	if !strings.Contains(rep, "topdown") && !strings.Contains(rep, "greedy") {
		t.Errorf("missing search traces in:\n%s", rep)
	}
}

func TestE4(t *testing.T) {
	rep, err := E4RecommendationAnalysis(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "overtrained") || !strings.Contains(rep, "weighted totals") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE5(t *testing.T) {
	rep, err := E5UnseenWorkload(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "test benefit") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE6(t *testing.T) {
	rep, err := E6SearchStrategies(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"greedy-basic", "greedy-heuristic", "topdown"} {
		if !strings.Contains(rep, want) {
			t.Errorf("missing %q in:\n%s", want, rep)
		}
	}
}

func TestE7(t *testing.T) {
	rep, err := E7UpdateCost(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "update cost") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE8(t *testing.T) {
	rep, err := E8ActualExecution(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"speedup", "geometric-mean", "tpox", "xmark-paper", "entries est/built", "q-error"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
}

// TestE8FetchEstimates checks E8's rows against the sizing defect it
// exists to catch: no index plan may fetch every document while the
// optimizer expects to fetch less than one.
func TestE8FetchEstimates(t *testing.T) {
	e := env(t)
	for _, w := range []*workload.Workload{e.XMarkWorkload, e.TPoXWorkload, e.PaperWorkload} {
		rows, err := e8Rows(e, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !r.plan.UsesIndexes() {
				continue
			}
			if r.idx.Metrics.DocsFetched == r.scan.Metrics.DocsScanned && r.plan.FetchDocs < 1 {
				t.Errorf("%s %s: fetched all %d documents, estimated %.1f", w.Name, r.id, r.idx.Metrics.DocsFetched, r.plan.FetchDocs)
			}
		}
	}
}

func TestE9(t *testing.T) {
	rep, err := E9CouplingAblation(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "optimizer") || !strings.Contains(rep, "syntactic") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE10(t *testing.T) {
	rep, err := E10InteractionAblation(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "evaluations") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE12(t *testing.T) {
	rep, err := E12ParallelWhatIf(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "workers") || !strings.Contains(rep, "hit%") {
		t.Errorf("report:\n%s", rep)
	}
	// The recommendation must not depend on the worker count: every row
	// reports the same index count and net benefit.
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	if len(lines) < 5 {
		t.Fatalf("table too short:\n%s", rep)
	}
	var first []string
	for _, ln := range lines[3:] {
		f := strings.Fields(ln)
		if len(f) < 3 {
			continue
		}
		if first == nil {
			first = f
			continue
		}
		if f[1] != first[1] || f[2] != first[2] {
			t.Errorf("worker count changed the recommendation:\n%s", rep)
		}
	}
}

func TestE13(t *testing.T) {
	rep, err := E13RuleAblation(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"none", "lub", "leaf", "all", "applied/pruned", "lub:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("missing %q in:\n%s", want, rep)
		}
	}
	// Every rule row must report at least as many candidates as basics
	// (rules only ever add to the basic set).
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	rows := 0
	for _, ln := range lines[3:] {
		f := strings.Fields(ln)
		if len(f) < 3 {
			continue
		}
		rows++
		var basic, cands int
		if _, err := fmt.Sscanf(f[1]+" "+f[2], "%d %d", &basic, &cands); err != nil {
			t.Fatalf("unparseable row %q: %v", ln, err)
		}
		if cands < basic {
			t.Errorf("row %q: %d candidates < %d basics", ln, cands, basic)
		}
	}
	if rows < 8 {
		t.Errorf("expected 8 ablation rows, got %d:\n%s", rows, rep)
	}
}

func TestEnvDeterministicAndCached(t *testing.T) {
	a, err := BuildEnv(Small)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildEnv(Small)
	if a != b {
		t.Error("env not cached")
	}
	if a.Store.Get("auction") == nil || a.Store.Get("security") == nil {
		t.Error("collections missing")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("title", "a", "bb")
	tb.add("x", 1)
	tb.add("longer", 2.5)
	s := tb.String()
	if !strings.Contains(s, "title") || !strings.Contains(s, "longer") || !strings.Contains(s, "2.5") {
		t.Errorf("table:\n%s", s)
	}
}

func TestE11(t *testing.T) {
	rep, err := E11AdvisorScalability(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "runtime") || !strings.Contains(rep, "80") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestE14(t *testing.T) {
	rep, err := E14StrategyPortfolio(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"race", "greedy-heuristic", "topdown", "winner", "xmark", "tpox",
		"syn-1k", "syn-10k", "lp", "greedy-whatif"} {
		if !strings.Contains(rep, want) {
			t.Errorf("missing %q in:\n%s", want, rep)
		}
	}
	// The race rows must name a winner and match its net benefit: the
	// portfolio is never worse than its best member.
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	raceRows := 0
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) < 10 || f[1] != "race" {
			continue
		}
		raceRows++
	}
	if raceRows != 4 {
		t.Errorf("expected 4 race rows (xmark, tpox, syn-1k, syn-10k), got %d:\n%s", raceRows, rep)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reports, err := All(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 14 {
		t.Fatalf("All returned %d reports, want 14", len(reports))
	}
	for i, r := range reports {
		if r == "" {
			t.Errorf("report %d empty", i)
		}
	}
}
