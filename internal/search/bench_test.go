package search_test

import (
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
)

var (
	benchOnce  sync.Once
	benchSpace *search.Space
	benchErr   error
)

// benchmarkSpace prepares one shared mid-budget search space over the
// small XMark workload; strategies then run over the warm what-if
// cache, so the benchmark isolates search overhead (ranking, rounds,
// trace assembly) from cold optimizer calls.
func benchmarkSpace(b *testing.B) *search.Space {
	b.Helper()
	benchOnce.Do(func() {
		env, err := experiments.BuildEnv(experiments.Small)
		if err != nil {
			benchErr = err
			return
		}
		ctx := context.Background()
		a := core.New(env.Cat, core.DefaultOptions())
		prep, err := a.Prepare(ctx, env.XMarkWorkload)
		if err != nil {
			benchErr = err
			return
		}
		full, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0)
		if err != nil {
			benchErr = err
			return
		}
		benchSpace = prep.Space().WithBudget(full.TotalPages / 2)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSpace
}

var (
	scaleMu     sync.Mutex
	scaleSpaces = map[int]*search.Space{}
)

// syntheticSpace returns the shared synthetic space with n basic
// candidates (built once per size; the spaces are immutable and the
// per-strategy eval counters live in the results, not the space).
func syntheticSpace(b *testing.B, n int) *search.Space {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	sp, ok := scaleSpaces[n]
	if !ok {
		sp = search.NewSyntheticSpace(n, 42)
		scaleSpaces[n] = sp
	}
	return sp
}

// BenchmarkSearchScale is the scale trajectory behind BENCH_search.json:
// the synthetic candidate space at 1k/10k/50k candidates, comparing the
// lazy-greedy heap against the eager marginal-scan oracle, the lp
// relaxation against lazy greedy, and the race portfolio. evals/op is
// each search's exact what-if call count (Stats.Evals), the quantity
// the lazy path (and, far more so, the lp strategy) exists to shrink.
// The slowest variants are skipped at 50k to keep the CI -benchtime=1x
// smoke seconds-scale; set SEARCH_SCALE_FULL=1 to run them anyway.
func BenchmarkSearchScale(b *testing.B) {
	lookup := func(name string) func(context.Context, *search.Space) (*search.Result, error) {
		strat, err := search.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		return strat.Search
	}
	variants := []struct {
		name   string
		search func(context.Context, *search.Space) (*search.Result, error)
	}{
		{"greedy-eager", search.EagerGreedyOracle},
		{"greedy-lazy", lookup("greedy-heuristic")},
		{"lp", lookup("lp")},
		{"race", lookup("race")},
	}
	full := os.Getenv("SEARCH_SCALE_FULL") != ""
	for _, sz := range []struct {
		name string
		n    int
		skip map[string]bool
	}{
		{"n-1k", 1_000, nil},
		{"n-10k", 10_000, nil},
		{"n-50k", 50_000, map[string]bool{"greedy-eager": true, "race": true}},
	} {
		b.Run(sz.name, func(b *testing.B) {
			sp := syntheticSpace(b, sz.n)
			for _, v := range variants {
				if sz.skip[v.name] && !full {
					continue
				}
				b.Run(v.name, func(b *testing.B) {
					ctx := context.Background()
					var evals, rounds int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := v.search(ctx, sp)
						if err != nil {
							b.Fatal(err)
						}
						evals += res.Stats.Evals
						rounds += int64(res.Stats.Rounds)
					}
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
					b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				})
			}
		})
	}
}

// BenchmarkSearch sweeps every registered strategy over the shared
// space — the CI smoke step runs this under -race with -benchtime=1x so
// strategy regressions (and data races between portfolio members) fail
// fast.
func BenchmarkSearch(b *testing.B) {
	sp := benchmarkSpace(b)
	for _, name := range search.Names() {
		strat, err := search.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := strat.Search(ctx, sp)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
