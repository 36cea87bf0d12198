package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/search"
	"repro/internal/whatif"
)

// BenchmarkWarmGreedy runs the greedy heuristic on a warm xmark
// session: one lazy greedy run ranked by the session's memoized benefit
// matrix, every atom already cached. lookups/op counts the what-if
// atoms the engine keys per run.
func BenchmarkWarmGreedy(b *testing.B) {
	cat := xmarkFixture(b, 300)
	ctx := context.Background()
	p, err := New(cat, DefaultOptions()).Prepare(ctx, datagen.XMarkWorkload(20, 1))
	if err != nil {
		b.Fatal(err)
	}
	strat, err := search.Lookup(string(SearchGreedyHeuristic))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := strat.Search(ctx, p.Space()); err != nil {
		b.Fatal(err)
	}
	tctx, tally := whatif.WithTally(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strat.Search(tctx, p.Space()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tally.Stats()
	if st.Misses != 0 {
		b.Fatalf("warm runs missed %d atoms", st.Misses)
	}
	b.ReportMetric(float64(st.Hits)/float64(b.N), "lookups/op")
}

// BenchmarkWarmRecommend runs one RecommendWith per registered strategy
// on a warm xmark session: search plus assembly, every atom already
// cached and the overtrained configuration priced by Prepare.
// lookups/op counts the what-if atoms resolved per recommend.
func BenchmarkWarmRecommend(b *testing.B) {
	cat := xmarkFixture(b, 300)
	ctx := context.Background()
	p, err := New(cat, DefaultOptions()).Prepare(ctx, datagen.XMarkWorkload(20, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range search.Names() {
		b.Run(name, func(b *testing.B) {
			if _, err := p.RecommendWith(ctx, SearchKind(name), 0); err != nil {
				b.Fatal(err)
			}
			var lookups int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := p.RecommendWith(ctx, SearchKind(name), 0)
				if err != nil {
					b.Fatal(err)
				}
				if rec.Cache.Misses != 0 {
					b.Fatalf("warm recommend missed %d atoms", rec.Cache.Misses)
				}
				lookups += rec.Cache.Hits
			}
			b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
		})
	}
}
