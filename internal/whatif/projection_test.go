package whatif

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/querylang"
)

// relService is a CostService with an explicit relevance table: def name
// -> relevant query IDs. Its cost honors the RelevanceService contract —
// only relevant definitions change a query's cost — so projection is
// exactly cost-preserving for it.
type relService struct {
	fakeService
	// relevant[qID][defName] marks the def relevant to the query.
	relevant map[string]map[string]bool
}

func (f *relService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	ev, err := f.fakeService.EvaluateQuery(ctx, q, config)
	if err != nil {
		return ev, err
	}
	// Recost counting only the relevant defs, so irrelevant ones are
	// genuinely inert (the contract projection relies on).
	base := ev.CostNoIndexes
	ev.Cost = base
	ev.UsedIndexes = nil
	for _, d := range config {
		if f.relevant[q.ID][d.Name] {
			ev.Cost -= 10
			ev.UsedIndexes = append(ev.UsedIndexes, d.Name)
		}
	}
	return ev, nil
}

func (f *relService) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	rel := f.relevant[q.ID]
	return func(d *catalog.IndexDef) bool { return rel[d.Name] }
}

// TestProjectionSharesAtomsAcrossConfigs is the tentpole property:
// configurations that differ only in definitions irrelevant to a query
// share that query's atom, so growing a configuration only pays service
// calls for the queries the new definition is relevant to.
func TestProjectionSharesAtomsAcrossConfigs(t *testing.T) {
	svc := &relService{relevant: map[string]map[string]bool{
		"Q1": {"I1": true},
		"Q2": {"I2": true},
	}}
	e := NewEngine(svc, Options{Workers: 4})
	qs := testQueries(2)
	i1, i2 := testDef("I1", "c", "/a/b"), testDef("I2", "c", "/a/c")
	b := e.Bind(qs)
	ctx := context.Background()

	// {I1}: Q1 keeps I1 (full config, no drop), Q2 projects to {}.
	if _, err := b.EvaluateConfig(ctx, []*catalog.IndexDef{i1}); err != nil {
		t.Fatal(err)
	}
	// {I1,I2}: Q1 projects to {I1} — the atom already cached — and only
	// Q2's new {I2} atom costs a service call.
	if got := perQuery(t, e, qs, []*catalog.IndexDef{i1, i2}); !reflect.DeepEqual(got, []Stats{
		{Hits: 1, ProjectedHits: 1, RelevantDefs: 1},
		{Misses: 1, Evaluations: 1, RelevantDefs: 1},
	}) {
		t.Errorf("per-query tallies = %+v, want Q1 hit / Q2 miss, 1 relevant def each", got)
	}
	// {I2}: Q2's projection {I2} was cached by the {I1,I2} call; only
	// Q1's empty projection is new.
	if got := perQuery(t, e, qs, []*catalog.IndexDef{i2}); !reflect.DeepEqual(got, []Stats{
		{Misses: 1, Evaluations: 1},
		{Hits: 1, RelevantDefs: 1},
	}) {
		t.Errorf("per-query tallies = %+v, want Q1 miss / Q2 hit", got)
	}
	st := e.Stats()
	if st.Misses != 4 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 4 misses / 2 hits", st)
	}
	// Q1's hit joined a key its projection shortened ({I1,I2} -> {I1});
	// Q2's hit joined a full-config key ({I2} requested as-is).
	if st.ProjectedHits != 1 {
		t.Errorf("projected hits = %d, want 1", st.ProjectedHits)
	}
	if calls := svc.calls.Load(); calls != 4 {
		t.Errorf("service calls = %d, want 4", calls)
	}
	// RelevantDefs: one def for each of Q1{I1} (x2 lookups), Q2{I2}
	// (x2 lookups); zero for the empty projections.
	if st.RelevantDefs != 4 {
		t.Errorf("relevant defs = %d, want 4", st.RelevantDefs)
	}
	if got := st.MeanRelevant(); got != 4.0/6.0 {
		t.Errorf("mean relevant = %f, want %f", got, 4.0/6.0)
	}
}

// perQuery evaluates config once per query, each on a single-query
// Bound under its own tally, and returns the tallies: what each query's
// atom lookup cost.
func perQuery(t *testing.T, e *Engine, qs []*querylang.Query, config []*catalog.IndexDef) []Stats {
	t.Helper()
	out := make([]Stats, len(qs))
	for qi := range qs {
		ctx, tally := WithTally(context.Background())
		if _, err := e.Bind(qs[qi:qi+1]).EvaluateConfig(ctx, config); err != nil {
			t.Fatal(err)
		}
		out[qi] = tally.Stats()
	}
	return out
}

// TestProjectionBatchDedup pins the dedup on projected keys inside one
// extension batch: a query an extension leaves untouched shares the
// base's atom, keyed once however many extensions leave it so, and a
// duplicate extension joins the in-batch owner of its atom.
func TestProjectionBatchDedup(t *testing.T) {
	svc := &relService{relevant: map[string]map[string]bool{
		"Q1": {"I1": true},
		"Q2": {"I2": true},
	}}
	e := NewEngine(svc, Options{Workers: 4})
	qs := testQueries(2)
	i1, i2, i3 := testDef("I1", "c", "/a/b"), testDef("I2", "c", "/a/c"), testDef("I3", "c", "/a/d")
	b := e.Bind(qs)

	// Q1 keys its base projection {I1} once, for all three extensions.
	// Q2 keys {I2} for the first extension, joins it for the third, and
	// keys its base projection {} once, for the second.
	ctx, tally := WithTally(context.Background())
	got, err := b.EvaluateExtensions(ctx, []*catalog.IndexDef{i1}, []*catalog.IndexDef{i2, i3, i2})
	if err != nil {
		t.Fatal(err)
	}
	for ci := 1; ci < len(got); ci++ {
		if got[ci].Queries[0] != got[0].Queries[0] {
			t.Errorf("extension %d: Q1 does not share the base's atom", ci)
		}
	}
	if got[2].Queries[1] != got[0].Queries[1] || got[1].Queries[1] == got[0].Queries[1] {
		t.Error("Q2: the duplicate extension does not share its owner's atom, or the untouched one does")
	}
	if want := (Stats{Misses: 3, Hits: 1, ProjectedHits: 1, Evaluations: 3, RelevantDefs: 3}); tally.Stats() != want {
		t.Errorf("tally = %+v, want %+v", tally.Stats(), want)
	}
	if calls := svc.calls.Load(); calls != 3 {
		t.Errorf("service calls = %d, want 3", calls)
	}
}

// TestRelevantCounts checks the eval-free projected-size probe.
func TestRelevantCounts(t *testing.T) {
	svc := &relService{relevant: map[string]map[string]bool{
		"Q1": {"I1": true, "I2": true},
		"Q2": {"I2": true},
		"Q3": {},
	}}
	e := NewEngine(svc, Options{})
	b := e.Bind(testQueries(3))
	cfg := []*catalog.IndexDef{
		testDef("I1", "c", "/a/b"),
		testDef("I2", "c", "/a/c"),
		testDef("I3", "other", "/a/d"), // wrong collection for every query
	}
	got := b.RelevantCounts(cfg)
	if want := []int{2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("relevant counts = %v, want %v", got, want)
	}
	if calls := svc.calls.Load(); calls != 0 {
		t.Errorf("RelevantCounts issued %d service calls", calls)
	}
}

func TestNewRelevanceStats(t *testing.T) {
	if got := NewRelevanceStats(nil); got != (RelevanceStats{}) {
		t.Errorf("empty input: %+v", got)
	}
	counts := []int{5, 1, 3, 3, 2, 8, 3, 4, 2, 1} // sorted: 1 1 2 2 3 3 3 4 5 8
	got := NewRelevanceStats(counts)
	want := RelevanceStats{Queries: 10, Min: 1, Median: 3, P95: 8, Max: 8, Mean: 3.2}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	one := NewRelevanceStats([]int{7})
	if one.Min != 7 || one.Median != 7 || one.P95 != 7 || one.Max != 7 || one.Mean != 7 {
		t.Errorf("single-element stats = %+v", one)
	}
}

// TestRetryProjectsByBoundIndex: a waiter that retries a dead owner's
// atom re-enters the batch path with that one atom, so the atom must
// find its relevance by its own index in the Bound. Here the retried
// atom is the second query's, whose relevance differs from the first's.
func TestRetryProjectsByBoundIndex(t *testing.T) {
	svc := &relService{
		fakeService: fakeService{block: make(chan struct{}), blockOn: "I2"},
		relevant:    map[string]map[string]bool{"Q1": {"I1": true}, "Q2": {"I2": true}},
	}
	e := NewEngine(svc, Options{Workers: 2})
	b := e.Bind(testQueries(2))
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a"), testDef("I2", "c", "/b")}

	// The owner blocks on Q2's atom (the only one carrying I2) until its
	// context dies; Q1's atom completes and is cached.
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := b.EvaluateConfig(ownerCtx, cfg)
		ownerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	waiterDone := make(chan *ConfigEval, 1)
	go func() {
		ev, err := b.EvaluateConfig(context.Background(), cfg)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterDone <- ev
	}()
	time.Sleep(10 * time.Millisecond)
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	close(svc.block)
	ev := <-waiterDone
	if ev == nil {
		t.FailNow()
	}
	if got := ev.Queries[1].UsedIndexes; !reflect.DeepEqual(got, []string{"I2"}) {
		t.Errorf("retried Q2 used %v, want [I2]: the retry projected by the wrong query", got)
	}
	if n := e.Len(); n != 2 {
		t.Errorf("cache holds %d atoms, want 2 (one per query)", n)
	}
}
