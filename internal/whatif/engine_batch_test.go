package whatif

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
)

// TestEvaluateExtensionsMatchesSingle checks the batch entry point is
// observationally identical to per-config EvaluateConfig of base+{d}:
// same values, same caching (one miss per distinct atom, a duplicate
// extension inside the batch joins the owner), and a warm second batch
// costs zero service calls.
func TestEvaluateExtensionsMatchesSingle(t *testing.T) {
	ctx := context.Background()
	qs := testQueries(4)
	i1, i2, i3 := testDef("I1", "c", "/a/b"), testDef("I2", "c", "/a/c"), testDef("I3", "c", "/a/d")
	base := []*catalog.IndexDef{i1}
	adds := []*catalog.IndexDef{
		i2,
		i3,
		i2, // duplicate of adds[0]: must join, not re-evaluate
		i1, // already in the base: a configuration of its own
	}

	// Reference values from the single-config path on its own engine.
	ref := NewEngine(&fakeService{}, Options{Workers: 4}).Bind(qs)
	want := make([]*ConfigEval, len(adds))
	for i, d := range adds {
		var err error
		want[i], err = ref.EvaluateConfig(ctx, append(append([]*catalog.IndexDef(nil), base...), d))
		if err != nil {
			t.Fatal(err)
		}
	}

	svc := &fakeService{}
	e := NewEngine(svc, Options{Workers: 4})
	b := e.Bind(qs)
	ctx, tally := WithTally(ctx)
	got, err := b.EvaluateExtensions(ctx, base, adds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(adds) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(adds))
	}
	for i, g := range got {
		if g == nil {
			t.Fatalf("extension %d: nil result", i)
		}
		for qi := range qs {
			if g.Queries[qi].Cost != want[i].Queries[qi].Cost {
				t.Errorf("extension %d query %d: cost %f, want %f", i, qi, g.Queries[qi].Cost, want[i].Queries[qi].Cost)
			}
		}
	}
	// The duplicate joins the owner's atoms, not a second evaluation.
	if !reflect.DeepEqual(got[2].Queries, got[0].Queries) {
		t.Error("duplicate extension was not served by the in-batch owner")
	}
	// fakeService makes every definition relevant to every query, so
	// each extension keys all its queries and the base keys none:
	// {I1,I2}, {I1,I3} and {I1,I1} are distinct, the duplicate hits.
	distinct := 3
	st := tally.Stats()
	if st.Misses != int64(distinct*len(qs)) || st.Hits != int64(len(qs)) {
		t.Errorf("tally = %+v, want %d misses (one per distinct atom) and %d hits", st, distinct*len(qs), len(qs))
	}
	if calls := svc.calls.Load(); calls != int64(distinct*len(qs)) {
		t.Errorf("service calls = %d, want %d", calls, distinct*len(qs))
	}

	// A warm repeat is pure cache hits.
	before := svc.calls.Load()
	again, err := b.EvaluateExtensions(ctx, base, adds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !reflect.DeepEqual(again[i].Queries, got[i].Queries) {
			t.Errorf("extension %d: warm batch did not return the cached values", i)
		}
	}
	if calls := svc.calls.Load(); calls != before {
		t.Errorf("warm batch issued %d service calls", calls-before)
	}
	if res, err := b.EvaluateExtensions(ctx, base, nil); err != nil || len(res) != 0 {
		t.Errorf("no extensions: %v, %v; want no results", res, err)
	}
}

// TestEvaluateExtensionsErrors checks a failing backend surfaces the
// error and leaves nothing poisoned in the cache, whether the failing
// atoms are the base's (every extension is irrelevant to every query)
// or the extensions' (the base atoms are already cached).
func TestEvaluateExtensionsErrors(t *testing.T) {
	ctx := context.Background()
	qs := testQueries(3)
	base := []*catalog.IndexDef{testDef("I0", "c", "/a/a")}
	for name, tc := range map[string]struct {
		adds    []*catalog.IndexDef
		warm    bool // cache the base's atoms first
		entries int  // cache entries left by the failed batch
	}{
		"base":      {adds: []*catalog.IndexDef{testDef("X1", "other", "/a/b"), testDef("X2", "other", "/a/c")}},
		"extension": {adds: []*catalog.IndexDef{testDef("I1", "c", "/a/b"), testDef("I2", "c", "/a/c")}, warm: true, entries: len(qs)},
	} {
		svc := &fakeService{}
		e := NewEngine(svc, Options{Workers: 2})
		b := e.Bind(qs)
		if tc.warm {
			if _, err := b.EvaluateConfig(ctx, base); err != nil {
				t.Fatal(err)
			}
		}
		svc.fail = true
		if _, err := b.EvaluateExtensions(ctx, base, tc.adds); err == nil {
			t.Fatalf("%s: batch over a failing service returned no error", name)
		}
		if n := e.Len(); n != tc.entries {
			t.Fatalf("%s: failed evaluations left %d cache entries, want %d", name, n, tc.entries)
		}
		// The same extensions succeed once the backend recovers.
		svc.fail = false
		res, err := b.EvaluateExtensions(ctx, base, tc.adds)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 || res[0] == nil || res[1] == nil {
			t.Fatalf("%s: recovered batch returned %v", name, res)
		}
	}
}

// TestExtensionRetriesDeadOwner: a batch that joins atoms another call
// owns, and sees that owner die on its own context, re-runs each such
// atom with its own context — a base atom (Q1, which the extension
// leaves untouched) and an extension atom (Q2) alike.
func TestExtensionRetriesDeadOwner(t *testing.T) {
	svc := &relService{
		fakeService: fakeService{block: make(chan struct{}), blockOn: "B"},
		relevant:    map[string]map[string]bool{"Q1": {"B": true}, "Q2": {"B": true, "X": true}},
	}
	e := NewEngine(svc, Options{Workers: 2})
	b := e.Bind(testQueries(2))
	base, x := []*catalog.IndexDef{testDef("B", "c", "/a")}, testDef("X", "c", "/b")

	// The owner holds Q1's {B} and Q2's {B,X} atoms in flight.
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := b.EvaluateConfig(ownerCtx, append(base[:1:1], x))
		ownerDone <- err
	}()
	for svc.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	waiterDone := make(chan *ConfigEval, 1)
	go func() {
		evs, err := b.EvaluateExtensions(context.Background(), base, []*catalog.IndexDef{x})
		if err != nil {
			t.Errorf("waiter: %v", err)
			waiterDone <- nil
			return
		}
		waiterDone <- evs[0]
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
	for qi, want := range [][]string{{"B"}, {"B", "X"}} {
		if got := ev.Queries[qi].UsedIndexes; !reflect.DeepEqual(got, want) {
			t.Errorf("retried Q%d used %v, want %v", qi+1, got, want)
		}
	}
	if n := e.Len(); n != 2 {
		t.Errorf("cache holds %d atoms, want 2 (one per query)", n)
	}
}
