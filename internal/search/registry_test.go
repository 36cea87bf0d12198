package search

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/whatif"
)

func TestRegistryNamesAndAliases(t *testing.T) {
	names := Names()
	for _, want := range []string{"greedy-basic", "greedy-heuristic", "topdown", "race"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	for alias, canonical := range map[string]string{
		"greedy": "greedy-heuristic", "heuristic": "greedy-heuristic",
		"basic": "greedy-basic", "knapsack": "greedy-basic",
		"top-down": "topdown", "portfolio": "race",
		"": Default,
	} {
		got, err := Canonical(alias)
		if err != nil || got != canonical {
			t.Errorf("Canonical(%q) = %q, %v; want %q", alias, got, err, canonical)
		}
		s, err := Lookup(alias)
		if err != nil || s.Name() != canonical {
			t.Errorf("Lookup(%q) = %v, %v", alias, s, err)
		}
	}
}

func TestLookupErrorEnumeratesStrategies(t *testing.T) {
	_, err := Lookup("simulated-annealing")
	if err == nil {
		t.Fatal("unknown strategy should fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "simulated-annealing") {
		t.Errorf("error does not echo the bad name: %q", msg)
	}
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not enumerate %q: %q", name, msg)
		}
	}
}

func TestRatioHandlesZeroPages(t *testing.T) {
	if r := ratio(10, 0); r != 10 {
		t.Errorf("ratio(10, 0) = %f", r)
	}
	if r := ratio(-3, 2); r != -1.5 {
		t.Errorf("ratio(-3, 2) = %f", r)
	}
}

// testCand builds a synthetic candidate with the given pattern and size.
func testCand(t *testing.T, id int, pat string, pages int64) *Candidate {
	t.Helper()
	p, err := pattern.Parse(pat)
	if err != nil {
		t.Fatal(err)
	}
	return &Candidate{
		ID:         id,
		Collection: "c",
		Pattern:    p,
		Type:       sqltype.Double,
		Def:        &catalog.IndexDef{Name: "T", Collection: "c", Pattern: p, Type: sqltype.Double, EstPages: pages, EstEntries: pages},
	}
}

// flatEval prices every configuration as the sum of fixed per-candidate
// nets, with every member used — a pure-knapsack oracle for ranking
// tests.
type flatEval struct {
	net map[int]float64
}

func (f flatEval) Evaluate(_ context.Context, cfg []*Candidate) (*Eval, error) {
	out := &Eval{Usage: uniformUsage(true)}
	for _, c := range cfg {
		out.Net += f.net[c.ID]
		out.QueryBenefit += f.net[c.ID]
	}
	return out, nil
}

func (f flatEval) Workers() int { return 2 }

// unbuilt is a space over cands priced by f, whose benefit model holds
// each candidate's net as its private benefit, row by row in cands
// order, before NewSpace builds its search model.
func (f flatEval) unbuilt(cands []*Candidate, budget int64) Space {
	m := &whatif.BenefitMatrix{Rows: make([][]whatif.BenefitEntry, len(cands)), Private: make([]float64, len(cands))}
	for i, c := range cands {
		m.Private[i] = f.net[c.ID]
	}
	return Space{Candidates: cands, DAG: &DAG{Nodes: cands, Roots: cands}, BudgetPages: budget, Eval: f,
		Benefits: m}
}

// space is f's unbuilt space over cands, built.
func (f flatEval) space(t *testing.T, cands []*Candidate, budget int64) *Space {
	t.Helper()
	sp, err := NewSpace(f.unbuilt(cands, budget))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestGreedyRankingTiesAreDeterministic is the regression test for the
// equal-density tie-break: candidates with identical benefit/page
// ratios must rank by content (specificity, then key), independent of
// input order and of ID assignment, so recommendations are byte-stable
// across map-iteration order.
func TestGreedyRankingTiesAreDeterministic(t *testing.T) {
	// All four candidates have ratio 1.0; two pattern-specificity ties
	// and a pure key tie among equals.
	build := func(perm []int) ([]*Candidate, flatEval) {
		cands := []*Candidate{
			testCand(t, 0, "/a/b/x", 10),
			testCand(t, 1, "//x", 10),
			testCand(t, 2, "/a/*/x", 10),
			testCand(t, 3, "/a/b/y", 20),
		}
		ev := flatEval{net: map[int]float64{0: 10, 1: 10, 2: 10, 3: 20}}
		out := make([]*Candidate, len(cands))
		for i, pi := range perm {
			out[i] = cands[pi]
		}
		return out, ev
	}
	wantOrder := []string{"/a/b/x", "/a/b/y", "/a/*/x", "//x"}

	rng := rand.New(rand.NewSource(7))
	perm := []int{0, 1, 2, 3}
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		cands, ev := build(perm)
		sp := ev.space(t, cands, 10)
		alone, err := standalone(sp, cands)
		if err != nil {
			t.Fatal(err)
		}
		order := rankByDensity(cands, func(i int) float64 { return alone[cands[i].ID].Net })
		for k, i := range order {
			if c := cands[i]; c.Pattern.String() != wantOrder[k] {
				t.Fatalf("perm %v: rank[%d] = %s, want %s", perm, k, c.Pattern, wantOrder[k])
			}
		}

		// End to end through greedy-basic under a budget that forces the
		// tie to pick exactly one of the equals.
		strat, err := Lookup("greedy-basic")
		if err != nil {
			t.Fatal(err)
		}
		res, err := strat.Search(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Config) != 1 || res.Config[0].Pattern.String() != "/a/b/x" {
			t.Fatalf("perm %v: greedy-basic picked %v, want the most specific tie winner /a/b/x", perm, res.Config)
		}
	}
}

// TestStandaloneNeedsDenseIDs pins the benefit matrix's alignment
// contract: strategies find a candidate's row through its ID, so a
// candidate whose ID is out of range, or a DAG node that is not the
// space's candidate under its ID, fails NewSpace; and every strategy
// fails a space whose search model NewSpace did not build for its
// current candidates, DAG and matrix.
func TestStandaloneNeedsDenseIDs(t *testing.T) {
	ev := flatEval{net: map[int]float64{0: 5, 1: 3, 7: 2}}
	sparse := ev.unbuilt([]*Candidate{testCand(t, 0, "/a/b", 1), testCand(t, 7, "/a/c", 1)}, 0)
	stray := ev.unbuilt([]*Candidate{testCand(t, 0, "/a/b", 1), testCand(t, 1, "/a/c", 1)}, 0)
	stray.DAG = &DAG{Nodes: []*Candidate{stray.Candidates[0], testCand(t, 1, "/a/d", 1)}, Roots: stray.Candidates[:1]}
	for name, sp := range map[string]Space{"sparse": sparse, "stray": stray} {
		if _, err := NewSpace(sp); err == nil || !strings.Contains(err.Error(), "does not index it") {
			t.Errorf("%s: got error %v, want one naming the ID", name, err)
		}
	}

	cands := []*Candidate{testCand(t, 0, "/a/b", 1), testCand(t, 1, "/a/c", 1)}
	built := ev.space(t, cands, 0)
	literal := ev.unbuilt(cands, 0)
	replaced := built.WithBudget(0)
	replaced.Candidates = []*Candidate{cands[1], cands[0]}
	otherDAG := built.WithBudget(0)
	otherDAG.DAG = &DAG{Nodes: cands, Roots: cands[:1]}
	for _, name := range Names() {
		strat, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strat.Search(context.Background(), built); err != nil {
			t.Errorf("%s on the built space: %v", name, err)
		}
		for what, sp := range map[string]*Space{"literal": &literal, "replaced candidates": replaced, "replaced DAG": otherDAG} {
			if _, err := strat.Search(context.Background(), sp); err == nil || !strings.Contains(err.Error(), "NewSpace") {
				t.Errorf("%s on a %s space: got error %v, want one naming NewSpace", name, what, err)
			}
		}
	}
}

func TestTraceRendering(t *testing.T) {
	tr := Trace{
		{Round: 1, Action: ActionAdd, Candidate: "c|/a/b|dbl", Benefit: 12.5, Pages: 40,
			Covered: 3, Of: 9, Cache: Counters{Hits: 5, Misses: 2, Evaluations: 18}},
		{Round: 1, Action: ActionSkip, Candidate: "c|/a|dbl", Note: "over budget"},
	}
	lines := tr.Strings()
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, want := range []string{"add", "c|/a/b|dbl", "net=12.5", "pages=40", "covered=3/9", "[cache 5/2/18]"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q missing %q", lines[0], want)
		}
	}
	if !strings.Contains(lines[1], "(over budget)") {
		t.Errorf("skip line %q missing note", lines[1])
	}
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"action": "add"`, `"candidate": "c|/a/b|dbl"`, `"round": 1`, `"hits": 5`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q:\n%s", want, data)
		}
	}
}

// TestRaceAbortsOnDeadContext pins the portfolio's abort semantics: a
// cancelled shared context must fail the race rather than crown a
// winner among whichever members happened to finish.
func TestRaceAbortsOnDeadContext(t *testing.T) {
	cands := []*Candidate{testCand(t, 0, "/a/b", 1)}
	sp := flatEval{net: map[int]float64{0: 5}}.space(t, cands, 0)
	strat, err := Lookup("race")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := strat.Search(ctx, sp); err == nil {
		t.Fatal("race on a cancelled context should fail, not return a partial winner")
	}
	// A live context over the same space succeeds.
	if _, err := strat.Search(context.Background(), sp); err != nil {
		t.Fatalf("race on a live context: %v", err)
	}
}

func TestSpaceWithBudget(t *testing.T) {
	base := &Space{BudgetPages: 0}
	if !base.Fits(1 << 40) {
		t.Error("unlimited budget should fit anything")
	}
	tight := base.WithBudget(10)
	if tight.Fits(11) || !tight.Fits(10) {
		t.Error("WithBudget(10) budget arithmetic broken")
	}
	if base.BudgetPages != 0 {
		t.Error("WithBudget mutated the original space")
	}
}
