package candidate

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/workload"
)

// fixture builds a small auction catalog (the paper's §2.2 example data)
// and a workload whose enumeration produces LUB-able candidates.
func fixture(t testing.TB) (*catalog.Catalog, *workload.Workload) {
	t.Helper()
	st := store.New()
	col := st.MustCreate("auction")
	for i := 0; i < 120; i++ {
		region := []string{"namerica", "africa", "samerica"}[i%3]
		doc := fmt.Sprintf(
			`<site><regions><%[1]s><item id="i%[2]d"><name>item %[2]d</name><quantity>%[3]d</quantity><price>%[4]d.50</price></item></%[1]s></regions></site>`,
			region, i, 1+i%9, 10+(i*13)%400)
		if _, err := col.InsertXML(doc); err != nil {
			t.Fatal(err)
		}
	}
	w := &workload.Workload{Name: "test"}
	w.MustAddQuery(3, `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 return $i/name`)
	w.MustAddQuery(2, `for $i in collection("auction")/site/regions/africa/item where $i/quantity > 3 return $i/name`)
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/samerica/item where $i/price < 40 return $i/name`)
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 return $i/name`)
	return catalog.New(st), w
}

func optSource(cat *catalog.Catalog) Source {
	return &OptimizerSource{Opt: optimizer.New(cat)}
}

// fingerprint renders everything observable about a Set except wall time.
func fingerprint(s *Set) string {
	var sb strings.Builder
	for _, c := range s.All {
		fmt.Fprintf(&sb, "%d %s name=%s rule=%q basic=%v from=%v pages=%d\n",
			c.ID, c.Key(), c.Def.Name, c.Rule, c.Basic, c.FromQueries, c.Pages())
	}
	sb.WriteString(s.DAG.Render())
	st := s.Stats
	st.Wall = 0
	st.Matrix.BuildWall = 0
	st.Matrix.ReduceWall = 0
	fmt.Fprintf(&sb, "%+v\n", st)
	return sb.String()
}

func runPipeline(t testing.TB, cat *catalog.Catalog, src Source, w *workload.Workload, opts Options) *Set {
	t.Helper()
	set, err := New(cat, src, opts).Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPipelineParallelEqualsSerial(t *testing.T) {
	cat, w := fixture(t)
	base := fingerprint(runPipeline(t, cat, optSource(cat), w, Options{Parallelism: 1, Rules: AllRules()}))
	for _, par := range []int{2, 4, 8} {
		got := fingerprint(runPipeline(t, cat, optSource(cat), w, Options{Parallelism: par, Rules: AllRules()}))
		if got != base {
			t.Errorf("parallelism %d changed the candidate set:\n--- serial ---\n%s--- parallel ---\n%s", par, base, got)
		}
	}
}

func TestPipelineStatsAreCoherent(t *testing.T) {
	cat, w := fixture(t)
	set := runPipeline(t, cat, optSource(cat), w, Options{Rules: DefaultRules()})
	st := set.Stats
	if st.Source != "optimizer" {
		t.Errorf("source = %q", st.Source)
	}
	if st.Basic != len(set.Basics) {
		t.Errorf("Basic = %d, want %d", st.Basic, len(set.Basics))
	}
	if st.Enumerated != st.Basic+st.Deduped {
		t.Errorf("Enumerated %d != Basic %d + Deduped %d", st.Enumerated, st.Basic, st.Deduped)
	}
	// The duplicate fourth query must have been merged away.
	if st.Deduped == 0 {
		t.Error("expected deduplicated proposals from the repeated query")
	}
	if st.Generalized != len(set.All)-len(set.Basics) {
		t.Errorf("Generalized = %d, want %d", st.Generalized, len(set.All)-len(set.Basics))
	}
	applied := 0
	pruned := 0
	for _, r := range st.Rules {
		applied += r.Applied
		pruned += r.Pruned
	}
	if applied != st.Generalized {
		t.Errorf("sum of rule Applied %d != Generalized %d", applied, st.Generalized)
	}
	if pruned != st.Pruned {
		t.Errorf("sum of rule Pruned %d != Pruned %d", pruned, st.Pruned)
	}
	if st.Wall <= 0 {
		t.Error("wall time not recorded")
	}
	// The paper's LUB patterns must be present.
	keys := map[string]bool{}
	for _, c := range set.All {
		keys[c.Pattern.String()] = true
	}
	for _, want := range []string{"/site/regions/*/item/quantity", "/site/regions/*/item/*"} {
		if !keys[want] {
			t.Errorf("missing generalization %s", want)
		}
	}
}

func TestPipelineNoRulesYieldsBasicsOnly(t *testing.T) {
	cat, w := fixture(t)
	set := runPipeline(t, cat, optSource(cat), w, Options{})
	if len(set.All) != len(set.Basics) {
		t.Errorf("no rules, yet %d candidates vs %d basics", len(set.All), len(set.Basics))
	}
	if set.Stats.Generalized != 0 || len(set.Stats.Rules) != 0 {
		t.Errorf("stats report generalization without rules: %+v", set.Stats)
	}
	for i, c := range set.All {
		if c.ID != i {
			t.Errorf("IDs not dense: %d at %d", c.ID, i)
		}
		if !c.Basic {
			t.Errorf("non-basic candidate %s", c)
		}
	}
}

func TestPipelineHonorsCandidateBudget(t *testing.T) {
	cat, w := fixture(t)
	unbounded := runPipeline(t, cat, optSource(cat), w, Options{Rules: AllRules()})
	if len(unbounded.All) <= len(unbounded.Basics)+1 {
		t.Skip("fixture generalizes too little to constrain")
	}
	max := len(unbounded.Basics) + 1
	set := runPipeline(t, cat, optSource(cat), w, Options{Rules: AllRules(), MaxCandidates: max})
	if len(set.All) > max {
		t.Errorf("budget %d exceeded: %d candidates", max, len(set.All))
	}
	if set.Stats.Pruned == 0 {
		t.Error("budget pruning not counted")
	}
}

// TestMinSharedStepsBlocksUnrelatedLUB runs the paper's default rules
// over two same-length patterns that share only the document root:
// the default threshold lets LUB propose /site/*/*/*, a threshold of
// two shared steps blocks it.
func TestMinSharedStepsBlocksUnrelatedLUB(t *testing.T) {
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 100, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(st)
	w := &workload.Workload{}
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 1 return $i`)
	w.MustAddQuery(1, `for $p in collection("auction")/site/people/person/profile where $p/@income > 1 return $p`)
	unrelatedLUB := func(minShared int) bool {
		set := runPipeline(t, cat, optSource(cat), w, Options{Rules: DefaultRules(), MinSharedSteps: minShared})
		for _, c := range set.All {
			if c.Pattern.String() == "/site/*/*/*" {
				return true
			}
		}
		return false
	}
	if !unrelatedLUB(DefaultMinSharedSteps) {
		t.Fatal("fixture: LUB did not propose /site/*/*/* at the default threshold")
	}
	if unrelatedLUB(2) {
		t.Error("unrelated patterns generalized to /site/*/*/* despite MinSharedSteps=2")
	}
}

func TestPipelineRuleToggle(t *testing.T) {
	cat, w := fixture(t)
	lubOnly, err := ParseRules("lub")
	if err != nil {
		t.Fatal(err)
	}
	set := runPipeline(t, cat, optSource(cat), w, Options{Rules: lubOnly})
	for _, c := range set.All {
		if !c.Basic && c.Rule != "lub" {
			t.Errorf("rule %q produced %s with only lub enabled", c.Rule, c)
		}
	}
	keys := map[string]bool{}
	for _, c := range set.All {
		keys[c.Pattern.String()] = true
	}
	if keys["//quantity"] {
		t.Error("leaf-rule output //quantity present with leaf disabled")
	}
	if !keys["/site/regions/*/item/quantity"] {
		t.Error("lub output missing")
	}
}

func TestDAGRenderDeterministic(t *testing.T) {
	cat, w := fixture(t)
	base := runPipeline(t, cat, optSource(cat), w, Options{Rules: AllRules()}).DAG.Render()
	for i := 0; i < 3; i++ {
		if got := runPipeline(t, cat, optSource(cat), w, Options{Rules: AllRules(), Parallelism: 4}).DAG.Render(); got != base {
			t.Fatalf("DAG render differs between runs:\n%s\nvs\n%s", base, got)
		}
	}
	if !strings.Contains(base, "roots") {
		t.Errorf("render header missing: %s", base)
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	cat, w := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(cat, optSource(cat), Options{}).Run(ctx, w); err == nil {
		t.Error("cancelled context did not abort the pipeline")
	}
}

// failingSource fails on one query ID, after a pause that keeps the
// submission loop blocked on the worker semaphore.
type failingSource struct{ failID string }

func (f failingSource) Name() string { return "failing" }

func (f failingSource) Enumerate(q *querylang.Query) ([]Raw, error) {
	if q.ID == f.failID {
		return nil, fmt.Errorf("enumeration exploded on %s", q.ID)
	}
	time.Sleep(time.Millisecond)
	return nil, nil
}

func TestPipelineSurfacesSourceError(t *testing.T) {
	cat, w := fixture(t)
	src := failingSource{failID: w.Queries[0].Query.ID}
	_, err := New(cat, src, Options{Parallelism: 1}).Run(context.Background(), w)
	if err == nil || !strings.Contains(err.Error(), "enumeration exploded") {
		t.Errorf("source error masked: %v", err)
	}
}

func TestDedupeRaw(t *testing.T) {
	a := Raw{Pattern: mustPattern(t, "/a/b"), Type: sqltype.Varchar}
	b := Raw{Pattern: mustPattern(t, "/a/b"), Type: sqltype.Double} // same pattern, new type
	c := Raw{Pattern: mustPattern(t, "/a/c"), Type: sqltype.Varchar}
	got := DedupeRaw([]Raw{a, b, a, c, c, a})
	if len(got) != 3 || got[0].Key() != a.Key() || got[1].Key() != b.Key() || got[2].Key() != c.Key() {
		t.Errorf("DedupeRaw = %v", got)
	}
	if out := DedupeRaw(nil); len(out) != 0 {
		t.Errorf("DedupeRaw(nil) = %v", out)
	}
}

// BenchmarkDedupeRaw measures the single-pass map deduplication on a
// workload-sized proposal list with heavy duplication.
func BenchmarkDedupeRaw(b *testing.B) {
	var raws []Raw
	for i := 0; i < 64; i++ {
		p := mustPattern(b, fmt.Sprintf("/site/regions/r%d/item/quantity", i%8))
		raws = append(raws, Raw{Pattern: p, Type: sqltype.Double})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := DedupeRaw(raws); len(got) != 8 {
			b.Fatalf("dedupe kept %d", len(got))
		}
	}
}

// BenchmarkPipeline measures the full candidate front end on the test
// fixture (enumeration + rules + DAG), serial vs parallel enumeration.
func BenchmarkPipeline(b *testing.B) {
	cat, w := fixture(b)
	src := optSource(cat)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			p := New(cat, src, Options{Parallelism: par, Rules: DefaultRules()})
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(context.Background(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
