package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/whatif"
)

// accountingBudgets are the page budgets of the six concurrent
// requests.
var accountingBudgets = []int64{40, 80, 160, 320, 640, 1280}

// accountingSession prepares a fresh advisor's session over the
// xmark workload.
func accountingSession(t *testing.T, cat *catalog.Catalog) *Prepared {
	t.Helper()
	p, err := New(cat, DefaultOptions()).Prepare(context.Background(), datagen.XMarkWorkload(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentRecommendsAccountExactly runs six recommends at six
// budgets concurrently on one cold session, per strategy, and checks
// that each response counts exactly its own what-if work: the
// per-request evaluations sum to the engine's, each request looks up as
// many atoms as a serial run at the same budget, and the race's cache
// counts are the sum of its members'.
func TestConcurrentRecommendsAccountExactly(t *testing.T) {
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 250, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(st)
	ctx := context.Background()
	serialSession := accountingSession(t, cat)

	for _, kind := range []SearchKind{SearchGreedyHeuristic, SearchTopDown, "lp", SearchRace} {
		t.Run(string(kind), func(t *testing.T) {
			serial := make([]whatif.Stats, len(accountingBudgets))
			for i, b := range accountingBudgets {
				rec, err := serialSession.RecommendWith(ctx, kind, b)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = rec.Cache
			}

			p := accountingSession(t, cat)
			before := p.a.cost.Stats()
			recs := make([]*Recommendation, len(accountingBudgets))
			errs := make([]error, len(accountingBudgets))
			var wg sync.WaitGroup
			for i, b := range accountingBudgets {
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs[i], errs[i] = p.RecommendWith(ctx, kind, b)
				}()
			}
			wg.Wait()
			after := p.a.cost.Stats()

			var sum whatif.Stats
			for i, rec := range recs {
				if errs[i] != nil {
					t.Fatalf("budget %d: %v", accountingBudgets[i], errs[i])
				}
				c := rec.Cache
				sum.Hits += c.Hits
				sum.Misses += c.Misses
				sum.Evaluations += c.Evaluations
				if got, want := c.Hits+c.Misses, serial[i].Hits+serial[i].Misses; got != want {
					t.Errorf("budget %d: %d lookups, a serial run makes %d", accountingBudgets[i], got, want)
				}
				if kind == SearchRace {
					var members whatif.Stats
					for _, m := range rec.Search.Members {
						members.Hits += m.Cache.Hits
						members.Misses += m.Cache.Misses
						members.Evaluations += m.Cache.Evaluations
					}
					if rc := rec.Search.Cache; rc.Hits != members.Hits || rc.Misses != members.Misses || rc.Evaluations != members.Evaluations {
						t.Errorf("budget %d: race cache %+v, its members sum to %d/%d/%d", accountingBudgets[i],
							rc, members.Hits, members.Misses, members.Evaluations)
					}
				}
			}
			if got, want := sum.Evaluations, after.Evaluations-before.Evaluations; got != want {
				t.Errorf("requests claim %d evaluations, the engine made %d", got, want)
			}
			if got, want := sum.Hits+sum.Misses, (after.Hits+after.Misses)-(before.Hits+before.Misses); got != want {
				t.Errorf("requests claim %d lookups, the engine made %d", got, want)
			}
		})
	}
}

// TestWarmRecommendPricesNoOvertrained pins that the overtrained
// configuration is priced once, by Prepare: a warm recommend looks up
// exactly its search's atoms plus one per query for the final
// configuration, for every registered strategy (the race portfolio
// included), and reports the overtrained costs a fresh engine prices
// for every basic candidate, bit for bit.
func TestWarmRecommendPricesNoOvertrained(t *testing.T) {
	cat := xmarkFixture(t, 250)
	ctx := context.Background()
	p := accountingSession(t, cat)
	over, err := New(cat, DefaultOptions()).CostEngine().EvaluateConfig(ctx, p.w.QueryList(), defsOfCandidates(p.Basics()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range search.Names() {
		t.Run(name, func(t *testing.T) {
			if _, err := p.RecommendWith(ctx, SearchKind(name), 320); err != nil {
				t.Fatal(err)
			}
			rec, err := p.RecommendWith(ctx, SearchKind(name), 320)
			if err != nil {
				t.Fatal(err)
			}
			sc := rec.Search.Cache
			if got, want := rec.Cache.Hits+rec.Cache.Misses, sc.Hits+sc.Misses+int64(len(p.w.Queries)); got != want {
				t.Errorf("warm recommend looked up %d atoms, its search %d plus %d for the final configuration",
					got, sc.Hits+sc.Misses, len(p.w.Queries))
			}
			if rec.Cache.Evaluations != 0 {
				t.Errorf("warm recommend made %d cost calls", rec.Cache.Evaluations)
			}
			for qi, qa := range rec.PerQuery {
				if math.Float64bits(qa.CostOvertrained) != math.Float64bits(over.Queries[qi].Cost) {
					t.Errorf("%s: overtrained cost %v, a fresh engine prices %v", qa.ID, qa.CostOvertrained, over.Queries[qi].Cost)
				}
			}
		})
	}
}
