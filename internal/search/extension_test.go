package search_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/search"
	"repro/internal/whatif"
)

// batchRecorder records the base of every EvaluateBatch call it
// forwards.
type batchRecorder struct {
	search.BatchEvaluator
	mu    sync.Mutex
	bases [][]*search.Candidate
}

func (r *batchRecorder) EvaluateBatch(ctx context.Context, base, cands []*search.Candidate) ([]*search.Eval, error) {
	r.mu.Lock()
	r.bases = append(r.bases, slices.Clone(base))
	r.mu.Unlock()
	return r.BatchEvaluator.EvaluateBatch(ctx, base, cands)
}

func defsOf(cands []*search.Candidate) []*catalog.IndexDef {
	defs := make([]*catalog.IndexDef, len(cands))
	for i, c := range cands {
		defs[i] = c.Def
	}
	return defs
}

// extensionBases returns the distinct bases the extension differential
// prices every candidate on: the empty configuration, every
// configuration a lazy greedy run on sp extended, and the overtrained
// configuration minus its last member.
func extensionBases(t *testing.T, sp *search.Space, overtrained []*search.Candidate) [][]*catalog.IndexDef {
	t.Helper()
	rec := &batchRecorder{BatchEvaluator: sp.Eval.(search.BatchEvaluator)}
	view := *sp
	view.Eval, view.InteractionAware = rec, true
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strat.Search(context.Background(), &view); err != nil {
		t.Fatal(err)
	}
	bases := append([][]*search.Candidate{nil}, rec.bases...)
	bases = append(bases, overtrained[:len(overtrained)-1])
	seen := map[string]bool{}
	var out [][]*catalog.IndexDef
	for _, base := range bases {
		defs := defsOf(base)
		if k := whatif.ConfigKey(defs); !seen[k] {
			seen[k] = true
			out = append(out, defs)
		}
	}
	if len(out) < 3 {
		t.Fatalf("lazy greedy extended %d distinct configurations, want at least one round", len(out)-2)
	}
	return out
}

// diffExtensions checks the extension batch against whole-configuration
// evaluation. fresh returns a cold engine and a Bound over the workload.
// For every base and every extension, the batch returns the very
// *QueryEval pointers EvaluateConfig of base+{d} finds on the same
// engine, with the values a per-configuration run on another cold
// engine computes, and the two engines make the same number of
// CostService calls. A warm standalone pass then looks up each query's
// empty projection once and each candidate's atom only for the queries
// it can serve.
func diffExtensions(t *testing.T, label string, fresh func() (*whatif.Engine, *whatif.Bound),
	bases [][]*catalog.IndexDef, adds []*catalog.IndexDef) {
	t.Helper()
	ctx := context.Background()
	ex, bx := fresh()
	ey, by := fresh()
	for bi, base := range bases {
		evs, err := bx.EvaluateExtensions(ctx, base, adds)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range adds {
			cfg := append(slices.Clip(base), d)
			own, err := bx.EvaluateConfig(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := by.EvaluateConfig(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for qi, qe := range evs[i].Queries {
				if qe != own.Queries[qi] {
					t.Fatalf("%s base %d (%d defs) + %s: query %d's atom is not the one EvaluateConfig finds",
						label, bi, len(base), d.Name, qi)
				}
				if !reflect.DeepEqual(*qe, *ref.Queries[qi]) {
					t.Fatalf("%s base %d + %s: query %d costs %+v, a per-configuration run %+v",
						label, bi, d.Name, qi, *qe, *ref.Queries[qi])
				}
			}
		}
	}
	if x, y := ex.Stats().Evaluations, ey.Stats().Evaluations; x != y {
		t.Errorf("%s: extension batches made %d CostService calls, a per-configuration run %d", label, x, y)
	}

	rel := make([]int, len(bx.RelevantCounts(nil)))
	want := int64(0)
	for _, d := range adds {
		for qi, n := range bx.RelevantCounts([]*catalog.IndexDef{d}) {
			want += int64(n)
			rel[qi] += n
		}
	}
	for _, n := range rel {
		if n < len(adds) {
			want++ // some candidate leaves the query untouched: its base atom
		}
	}
	tctx, tally := whatif.WithTally(ctx)
	if _, err := bx.EvaluateExtensions(tctx, nil, adds); err != nil {
		t.Fatal(err)
	}
	st := tally.Stats()
	if got := st.Hits + st.Misses; got != want || st.Misses != 0 {
		t.Errorf("%s: warm standalone pass made %d lookups (%d misses), want %d hits: |Q| + sum |Rel(c)|",
			label, got, st.Misses, want)
	}
}

// TestExtensionBatchDifferential runs the extension differential on
// xmark, tpox and paper, and on the 1k-candidate synthetic what-if
// space.
func TestExtensionBatchDifferential(t *testing.T) {
	ctx := context.Background()
	proj, _ := advisorPair(t, 2)
	for name, w := range propertyWorkloads(t) {
		prep, err := proj.Prepare(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		bases := extensionBases(t, prep.Space(), prep.Basics())
		fresh := func() (*whatif.Engine, *whatif.Bound) {
			eng := whatif.NewEngine(whatif.NewOptimizerService(proj.Optimizer()), whatif.Options{Workers: 2})
			return eng, eng.Bind(w.QueryList())
		}
		diffExtensions(t, name, fresh, bases, defsOf(prep.Space().Candidates))
	}

	const n, seed = 1000, 7
	sp, _ := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{})
	var basics []*search.Candidate
	for _, c := range sp.Candidates {
		if c.Basic {
			basics = append(basics, c)
		}
	}
	fresh := func() (*whatif.Engine, *whatif.Bound) {
		sp, eng := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{})
		return eng, sp.Eval.(search.BoundEvaluator).Bound
	}
	// A tenth of the budget keeps the lazy run to a few dozen rounds.
	diffExtensions(t, "synthetic-1k", fresh, extensionBases(t, sp.WithBudget(sp.BudgetPages/10), basics), defsOf(sp.Candidates))
}
