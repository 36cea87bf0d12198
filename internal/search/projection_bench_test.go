package search_test

import (
	"context"
	"testing"

	"repro/advisor"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/whatif"
)

// BenchmarkWhatifProjection measures the what-if engine's relevance
// projection. On the whatif-backed synthetic space it runs
// greedy-heuristic search at 1k/10k candidates; on the xmark and tpox
// workloads it runs the whole advisor stack with projection (the
// default) against a backend whose relevance filter is hidden, so atoms
// are keyed by each query's whole collection-filtered configuration.
// evals/op is the engine's exact CostService call count
// (whatif.Stats.Evaluations), the quantity projection exists to shrink;
// projhits/op counts cache hits that only exist because projection
// dropped irrelevant definitions from the atom key. Both real-workload
// variants choose byte-identical configurations
// (TestProjectionDifferentialRealWorkloads pins that).
func BenchmarkWhatifProjection(b *testing.B) {
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		b.Fatal(err)
	}
	for _, sz := range []struct {
		name string
		n    int
	}{
		{"n-1k", 1_000},
		{"n-10k", 10_000},
	} {
		b.Run(sz.name, func(b *testing.B) {
			ctx := context.Background()
			var evals, projHits, hits int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh space per iteration: a warm cache would turn
				// every evaluation into a hit and measure nothing.
				b.StopTimer()
				sp, eng := search.NewSyntheticWhatIfSpace(sz.n, 42, whatif.Options{})
				b.StartTimer()
				if _, err := strat.Search(ctx, sp); err != nil {
					b.Fatal(err)
				}
				st := eng.Stats()
				evals += st.Evaluations
				projHits += st.ProjectedHits
				hits += st.Hits
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
			b.ReportMetric(float64(projHits)/float64(b.N), "projhits/op")
		})
	}
	// Real workloads through the whole advisor stack: candidate
	// pipeline + optimizer-backed what-if engine, projection on vs the
	// collection-only reference.
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []string{"xmark", "tpox"} {
		w := env.XMarkWorkload
		if wl == "tpox" {
			w = env.TPoXWorkload
		}
		b.Run(wl, func(b *testing.B) {
			for _, v := range []struct {
				name string
				opts []advisor.Option
			}{
				{"projected", nil},
				{"collection-only", []advisor.Option{advisor.WithCostWrapper(hideRelevance)}},
			} {
				b.Run(v.name, func(b *testing.B) {
					ctx := context.Background()
					var evals, projHits int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						a, err := advisor.New(env.Cat, v.opts...)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						rec, err := a.Recommend(ctx, w, advisor.RecommendRequest{})
						if err != nil {
							b.Fatal(err)
						}
						evals += rec.Cache.Evaluations
						projHits += rec.Cache.ProjectedHits
					}
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
					b.ReportMetric(float64(projHits)/float64(b.N), "projhits/op")
				})
			}
		})
	}
}
