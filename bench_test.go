// Package repro holds the benchmark harness: one benchmark per
// experiment of the README "Experiments" index (each regenerating a
// table/figure of the paper's demonstration), plus end-to-end advisor
// and executor benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Reports are written once per benchmark via -v logging; the
// cmd/experiments binary prints the same tables at reporting scale.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// runExperiment wraps one experiment as a benchmark, logging its report
// on the first iteration.
func runExperiment(b *testing.B, fn func(*experiments.Env) (string, error)) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fn(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkE1EnumerateIndexes regenerates Figure 2 (Enumerate Indexes).
func BenchmarkE1EnumerateIndexes(b *testing.B) {
	runExperiment(b, experiments.E1EnumerateIndexes)
}

// BenchmarkE2EvaluateIndexes regenerates Figure 3 (Evaluate Indexes).
func BenchmarkE2EvaluateIndexes(b *testing.B) {
	runExperiment(b, experiments.E2EvaluateIndexes)
}

// BenchmarkE3GeneralizationDAG regenerates Figure 4 (candidate DAG and
// search traversals).
func BenchmarkE3GeneralizationDAG(b *testing.B) {
	runExperiment(b, experiments.E3GeneralizationDAG)
}

// BenchmarkE4RecommendationAnalysis regenerates Figure 5 (per-query
// no-index / recommended / overtrained costs).
func BenchmarkE4RecommendationAnalysis(b *testing.B) {
	runExperiment(b, experiments.E4RecommendationAnalysis)
}

// BenchmarkE5UnseenWorkload regenerates the unseen-queries analysis
// (generalization payoff on held-out queries).
func BenchmarkE5UnseenWorkload(b *testing.B) {
	runExperiment(b, experiments.E5UnseenWorkload)
}

// BenchmarkE6SearchStrategies regenerates the search-strategy budget
// sweep (§2.3).
func BenchmarkE6SearchStrategies(b *testing.B) {
	runExperiment(b, experiments.E6SearchStrategies)
}

// BenchmarkE7UpdateCost regenerates the update-share sensitivity table.
func BenchmarkE7UpdateCost(b *testing.B) {
	runExperiment(b, experiments.E7UpdateCost)
}

// BenchmarkE8ActualExecution regenerates the demo's final step: actual
// execution time with and without the recommended indexes.
func BenchmarkE8ActualExecution(b *testing.B) {
	runExperiment(b, experiments.E8ActualExecution)
}

// BenchmarkE9CouplingAblation regenerates the tight- vs loose-coupling
// enumeration comparison.
func BenchmarkE9CouplingAblation(b *testing.B) {
	runExperiment(b, experiments.E9CouplingAblation)
}

// BenchmarkE10InteractionAblation regenerates the index-interaction
// ablation.
func BenchmarkE10InteractionAblation(b *testing.B) {
	runExperiment(b, experiments.E10InteractionAblation)
}

// BenchmarkE11AdvisorScalability regenerates the advisor-runtime table.
func BenchmarkE11AdvisorScalability(b *testing.B) {
	runExperiment(b, experiments.E11AdvisorScalability)
}

// BenchmarkE12ParallelWhatIf regenerates the what-if parallelism table.
func BenchmarkE12ParallelWhatIf(b *testing.B) {
	runExperiment(b, experiments.E12ParallelWhatIf)
}

// BenchmarkE13RuleAblation regenerates the generalization-rule ablation
// table (per-rule applied/pruned counters).
func BenchmarkE13RuleAblation(b *testing.B) {
	runExperiment(b, experiments.E13RuleAblation)
}

// BenchmarkE14StrategyPortfolio regenerates the strategy-portfolio
// table (every registered strategy plus the race, shared search space).
func BenchmarkE14StrategyPortfolio(b *testing.B) {
	runExperiment(b, experiments.E14StrategyPortfolio)
}

// BenchmarkAdvisorEndToEnd measures one full Recommend call on the
// XMark workload (the advisor-runtime series).
func BenchmarkAdvisorEndToEnd(b *testing.B) {
	env := benchEnv(b)
	w := datagen.XMarkWorkload(20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.New(env.Cat, core.DefaultOptions())
		if _, err := a.Recommend(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisorParallel sweeps the what-if engine's worker count on
// the XMark workload: one full Recommend per iteration, reporting the
// per-query evaluation count and cache hit rate alongside wall-clock.
// The recommendation itself is identical at every worker count; only
// the evaluation throughput changes.
func BenchmarkAdvisorParallel(b *testing.B) {
	env := benchEnv(b)
	w := datagen.XMarkWorkload(20, 1)
	for _, workers := range experiments.WorkerSweep() {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var evals, hits, misses int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Parallelism = workers
				a := core.New(env.Cat, opts)
				rec, err := a.Recommend(w)
				if err != nil {
					b.Fatal(err)
				}
				evals += rec.Cache.Evaluations
				hits += rec.Cache.Hits
				misses += rec.Cache.Misses
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-%")
			}
		})
	}
}

// BenchmarkAdvisorScalesWithWorkload reports advisor runtime as the
// workload grows (the scalability series).
func BenchmarkAdvisorScalesWithWorkload(b *testing.B) {
	env := benchEnv(b)
	for _, n := range []int{5, 10, 20, 40} {
		w := datagen.XMarkWorkload(n, 1)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.New(env.Cat, core.DefaultOptions())
				if _, err := a.Recommend(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return "queries-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkExecutorDocScan and BenchmarkExecutorIndexScan give the raw
// executor cost ratio behind E8.
func BenchmarkExecutorDocScan(b *testing.B) {
	env := benchEnv(b)
	cat := env.Cat
	ex := executor.New(cat)
	w := datagen.XMarkWorkload(1, 1)
	q := w.Queries[0].Query
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorIndexScan(b *testing.B) {
	env := benchEnv(b)
	cat := env.Cat
	a := core.New(cat, core.DefaultOptions())
	w := &workload.Workload{Name: "bench"}
	w.MustAddQuery(1, `for $i in collection("auction")/site/regions/namerica/item where $i/price < 20 return $i/name`)
	rec, err := a.Recommend(w)
	if err != nil {
		b.Fatal(err)
	}
	for i, c := range rec.Config {
		if _, err := cat.CreateIndex(rec.Names[i], c.Collection, c.Pattern, c.Type); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, name := range rec.Names {
			cat.DropIndex(name)
		}
	}()
	opt := optimizer.New(cat)
	q := w.Queries[0].Query
	plan, err := opt.Optimize(q, nil)
	if err != nil {
		b.Fatal(err)
	}
	ex := executor.New(cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(q, plan); err != nil {
			b.Fatal(err)
		}
	}
}
