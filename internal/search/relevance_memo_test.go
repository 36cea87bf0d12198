package search_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// memoDefs returns the real workloads, each one's prepared candidate
// definitions, definitions outside every space (universal patterns of
// every type on every collection), and the universe of the
// relevance-memo tests: every workload's candidates (so each
// workload's queries also meet other spaces' definitions), a
// same-content copy of each (distinct pointers must decide and key
// alike), and the outsiders.
func memoDefs(t *testing.T) (ws map[string]*workload.Workload, spaces map[string][]*catalog.IndexDef, outside, all []*catalog.IndexDef) {
	t.Helper()
	proj, _ := advisorPair(t, 2)
	ws = propertyWorkloads(t)
	spaces = map[string][]*catalog.IndexDef{}
	colls := map[string]bool{}
	for name, w := range ws {
		prep, err := proj.Prepare(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range prep.Space().Candidates {
			spaces[name] = append(spaces[name], c.Def)
			cp := *c.Def
			all = append(all, c.Def, &cp)
		}
		for _, q := range w.QueryList() {
			colls[q.Collection] = true
		}
	}
	for coll := range colls {
		for _, typ := range sqltype.Types {
			for _, kind := range []pattern.TestKind{pattern.TestElem, pattern.TestAttr} {
				outside = append(outside, &catalog.IndexDef{Name: "OUTSIDE", Collection: coll,
					Pattern: pattern.UniversalFor(kind), Type: typ, Virtual: true, EstPages: 1})
			}
		}
	}
	return ws, spaces, outside, append(all, outside...)
}

// memoEngines returns, per label, a fresh engine over the optimizer
// service and whether its relevance predicate is on: one exposing
// RelevanceService, and one behind a wrapper that hides it
// (collection-only projection).
func memoEngines(t *testing.T) map[string]struct {
	eng  *whatif.Engine
	pred bool
} {
	t.Helper()
	proj, _ := advisorPair(t, 2)
	svc := whatif.NewOptimizerService(proj.Optimizer())
	return map[string]struct {
		eng  *whatif.Engine
		pred bool
	}{
		"relevance":       {whatif.NewEngine(svc, whatif.Options{Workers: 2}), true},
		"collection-only": {whatif.NewEngine(hideRelevance(svc), whatif.Options{Workers: 2}), false},
	}
}

// referenceKeeps is the projection rule the memo must reproduce,
// evaluated with the predicate on every call.
func referenceKeeps(qs []*querylang.Query, pred bool) func(qi int, d *catalog.IndexDef) bool {
	preds := make([]func(*catalog.IndexDef) bool, len(qs))
	if pred {
		for qi, q := range qs {
			preds[qi] = optimizer.RelevantFilter(q)
		}
	}
	return func(qi int, d *catalog.IndexDef) bool {
		return d.Collection == qs[qi].Collection && (preds[qi] == nil || preds[qi](d))
	}
}

// TestRelevanceMemoDifferential checks the Bound's once-per-definition
// relevance memo against the predicate it caches. For every (query,
// definition) pair of xmark, tpox and paper — definitions in and
// outside the query's space, with and without RelevanceService — the
// memo's decision equals optimizer.RelevantFilter (plus the collection
// filter). On random configurations, RelevantCounts, the projected
// sizes a Tally charges and the cached atoms equal a reference computed
// with the predicate: one atom per distinct (query, projection), the
// same atoms as pricing each query alone on its projection.
func TestRelevanceMemoDifferential(t *testing.T) {
	ctx := context.Background()
	ws, spaces, outside, all := memoDefs(t)
	for label, e := range memoEngines(t) {
		for name, w := range ws {
			qs := w.QueryList()
			keeps := referenceKeeps(qs, e.pred)
			b := e.eng.Bind(qs)
			for _, d := range all {
				got := b.RelevantCounts([]*catalog.IndexDef{d})
				for qi := range qs {
					if want := keeps(qi, d); (got[qi] == 1) != want || got[qi] > 1 {
						t.Fatalf("%s/%s: query %d, def %s %s: memo %d, predicate %v",
							label, name, qi, d.Name, d.Pattern, got[qi], want)
					}
				}
			}

			// Random configurations over the space plus outsiders, on a
			// fresh Bind so the configurations meet an empty memo.
			b = e.eng.Bind(qs)
			rng := rand.New(rand.NewSource(int64(len(name) + len(label))))
			pool := append(append([]*catalog.IndexDef(nil), spaces[name]...), outside...)
			configs := [][]*catalog.IndexDef{nil}
			for len(configs) < 16 {
				cfg := make([]*catalog.IndexDef, 1+rng.Intn(8))
				for i := range cfg {
					cfg[i] = pool[rng.Intn(len(pool))]
				}
				configs = append(configs, cfg)
			}
			// refs lists each query's projection of each configuration;
			// distinct counts the different (query, projection) pairs.
			type ref struct {
				qi  int
				sub []*catalog.IndexDef
			}
			var refs []ref
			distinct := map[[3]string]bool{}
			for ci, cfg := range configs {
				counts := b.RelevantCounts(cfg)
				for qi := range qs {
					var sub []*catalog.IndexDef
					for _, d := range cfg {
						if keeps(qi, d) {
							sub = append(sub, d)
						}
					}
					if counts[qi] != len(sub) {
						t.Fatalf("%s/%s config %d query %d: RelevantCounts %d, reference %d",
							label, name, ci, qi, counts[qi], len(sub))
					}
					refs = append(refs, ref{qi, sub})
					distinct[[3]string{qs[qi].Collection, qs[qi].Text, whatif.ConfigKey(sub)}] = true
				}
			}
			// Each configuration is priced as its last definition
			// extending the rest, so both halves of an extension batch
			// (base atoms and extension atoms) key through the memo. One
			// lookup per query, each charging its projected size.
			for ci, cfg := range configs {
				tctx, tally := whatif.WithTally(ctx)
				var err error
				if len(cfg) == 0 {
					_, err = b.EvaluateConfig(tctx, cfg)
				} else {
					_, err = b.EvaluateExtensions(tctx, cfg[:len(cfg)-1], cfg[len(cfg)-1:])
				}
				if err != nil {
					t.Fatal(err)
				}
				sum := 0
				for _, n := range b.RelevantCounts(cfg) {
					sum += n
				}
				if st := tally.Stats(); st.Hits+st.Misses != int64(len(qs)) || st.RelevantDefs != int64(sum) {
					t.Fatalf("%s/%s config %d: tally %+v, want %d lookups of %d relevant defs in all",
						label, name, ci, st, len(qs), sum)
				}
			}
			// The engine saw only this batch since its last flush, so the
			// Bound's atoms are one per distinct (query, projection): the
			// atoms that pricing each query alone on its reference
			// projection leaves in an empty cache.
			keys := func() []string {
				var out []string
				for _, a := range b.ExportAtoms() {
					out = append(out, a.Key)
				}
				return out
			}
			gotKeys := keys()
			if len(gotKeys) != len(distinct) {
				t.Fatalf("%s/%s: %d cached atoms for %d distinct (query, projection) pairs",
					label, name, len(gotKeys), len(distinct))
			}
			e.eng.Flush()
			for _, r := range refs {
				if _, err := e.eng.Bind(qs[r.qi:r.qi+1]).EvaluateConfig(ctx, r.sub); err != nil {
					t.Fatal(err)
				}
			}
			if wantKeys := keys(); !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("%s/%s: cached atom keys differ from the per-query reference: %d vs %d keys",
					label, name, len(gotKeys), len(wantKeys))
			}
			e.eng.Flush()
		}
	}
}

// containsProbes is the containment kernel's lifetime probe count.
func containsProbes() int64 {
	s := pattern.Stats().Contains
	return s.Hits + s.Misses
}

// TestWarmLookupsProbeFree pins the point of the relevance memo: once
// a Bound has seen a configuration, evaluating it again — and counting
// its relevant sizes — makes no containment probe at all, cached or
// not. The same holds end to end for a repeated recommend on a
// prepared session.
func TestWarmLookupsProbeFree(t *testing.T) {
	ctx := context.Background()
	proj, _ := advisorPair(t, 2)
	for name, w := range propertyWorkloads(t) {
		prep, err := proj.Prepare(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		cands := prep.Space().Candidates
		eng := whatif.NewEngine(whatif.NewOptimizerService(proj.Optimizer()), whatif.Options{Workers: 2})
		b := eng.Bind(w.QueryList())
		rng := rand.New(rand.NewSource(int64(len(name))))
		var configs [][]*catalog.IndexDef
		for len(configs) < 12 {
			cfg := make([]*catalog.IndexDef, 1+rng.Intn(6))
			for i := range cfg {
				cfg[i] = cands[rng.Intn(len(cands))].Def
			}
			configs = append(configs, cfg)
		}
		for _, cfg := range configs {
			if _, err := b.EvaluateConfig(ctx, cfg); err != nil {
				t.Fatal(err)
			}
		}
		before, stats := containsProbes(), eng.Stats()
		for _, cfg := range configs {
			if _, err := b.EvaluateConfig(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			b.RelevantCounts(cfg)
		}
		if got := containsProbes() - before; got != 0 {
			t.Errorf("%s: re-evaluating seen configurations made %d containment probes, want 0", name, got)
		}
		if got := eng.Stats().Misses - stats.Misses; got != 0 {
			t.Errorf("%s: re-evaluation missed %d atoms, want 0", name, got)
		}

		if _, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0); err != nil {
			t.Fatal(err)
		}
		before = containsProbes()
		rec, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := containsProbes() - before; got != 0 || rec.Kernel.Contains.Hits+rec.Kernel.Contains.Misses != 0 {
			t.Errorf("%s: repeated recommend made %d containment probes (response reports %d), want 0",
				name, got, rec.Kernel.Contains.Hits+rec.Kernel.Contains.Misses)
		}
	}
}
