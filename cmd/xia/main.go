// Command xia is the XML Index Advisor CLI: given a database (generated
// or loaded from a directory of XML files) and a workload file, it
// recommends an index configuration under a disk budget and prints the
// recommendation analysis. It is a thin shell over the public advisor
// package — the same API the xiad server mode speaks.
//
//	xia -gen xmark:500:1 -workload data/xmark.workload -budget-kb 256 -search topdown
//	xia -gen xmark:500:1 -workload data/xmark.workload -search race -trace-json
//	xia -load auction=data/auction -workload data/xmark.workload -dag -trace
//	xia -gen xmark:500:1 -workload data/xmark.workload -parallel 8 -cache-size 4096 -timeout 30s
//	xia -gen xmark:500:1 -workload data/xmark.workload -rules lub,leaf,axis
//	xia -gen xmark:500:1 -workload data/xmark.workload -search race -timeout 2s
//
// With -timeout, a race search cut off by the deadline returns the best
// configuration any member finished; a deadline that expires before
// the search, or in any other strategy, fails the run.
//
// The -materialize flag additionally builds the recommended indexes and
// reruns the workload to report actual execution times (the demo's final
// step).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	gen := flag.String("gen", "", "generate data: xmark:<docs>:<seed> or tpox:<securities>:<seed>")
	load := flag.String("load", "", "load data: <collection>=<dir>[,<collection>=<dir>...]")
	wpath := flag.String("workload", "", "workload file (required)")
	budgetKB := flag.Int64("budget-kb", 0, "disk budget in KB (0 = unlimited)")
	searchName := flag.String("search", "greedy", "search strategy: "+strings.Join(advisor.Strategies(), " | "))
	rules := flag.String("rules", "", "generalization rules: comma-separated lub,wildcard,leaf,axis,universal | all | none (default: paper rules)")
	showDAG := flag.Bool("dag", false, "print the candidate DAG")
	showTrace := flag.Bool("trace", false, "print the search trace")
	traceJSON := flag.Bool("trace-json", false, "print the structured search trace as JSON")
	materialize := flag.Bool("materialize", false, "build recommended indexes and report actual execution times")
	parallel := flag.Int("parallel", 0, "concurrent what-if evaluations (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 0, "max memoized what-if atoms, one per (query, projected sub-configuration) (0 = default 65536, negative = unlimited)")
	timeout := flag.Duration("timeout", 0, "deadline for the whole run; a race search cut off by it returns its best finished member, anything else fails (0 = none)")
	flag.Parse()

	if *wpath == "" {
		fmt.Fprintln(os.Stderr, "xia: -workload is required")
		os.Exit(2)
	}
	st := store.New()
	if err := setupData(st, *gen, *load); err != nil {
		fatal(err)
	}
	text, err := os.ReadFile(*wpath)
	if err != nil {
		fatal(err)
	}
	w, err := advisor.ParseWorkload(filepath.Base(*wpath), string(text))
	if err != nil {
		fatal(err)
	}

	// All flag validation (budget, strategy names, rule specs) happens
	// in the advisor constructor — the one shared path.
	cat := catalog.New(st)
	adv, err := advisor.New(cat,
		advisor.WithStrategy(*searchName),
		advisor.WithBudgetKB(*budgetKB),
		advisor.WithRules(*rules),
		advisor.WithParallelism(*parallel),
		advisor.WithCacheSize(*cacheSize),
	)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	resp, err := adv.Recommend(ctx, w, advisor.RecommendRequest{
		IncludeTrace: *showTrace || *traceJSON,
		IncludeDAG:   *showDAG,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(resp.Report())
	// resp.Report already covers evaluations and hits; add only what it
	// lacks.
	fmt.Printf("what-if engine: %d workers, %d cache misses (%.0f%% hit rate, %d projection-enabled hits, %.1f relevant defs/atom)\n",
		adv.Workers(), resp.Cache.Misses, 100*resp.Cache.HitRate(),
		resp.Cache.ProjectedHits, resp.Cache.MeanRelevant())
	fmt.Printf("relevance: %d..%d relevant candidates/query (median %d, p95 %d, mean %.1f)\n",
		resp.Relevance.Min, resp.Relevance.Max, resp.Relevance.Median, resp.Relevance.P95, resp.Relevance.Mean)
	fmt.Println(resp.Kernel.String())
	fmt.Println(resp.Search.String())
	fmt.Println(resp.Pipeline.String())
	if *showDAG {
		fmt.Println()
		fmt.Print(resp.DAGText)
	}
	if *showTrace {
		fmt.Println("\nsearch trace:")
		for _, ev := range resp.Trace {
			fmt.Println("  " + ev.String())
		}
	}
	if *traceJSON {
		data, err := resp.Trace.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nsearch trace (JSON):\n%s\n", data)
	}
	if *materialize {
		if err := runMaterialized(cat, adv, resp, w); err != nil {
			fatal(err)
		}
	}
}

func setupData(st *store.Store, gen, load string) error {
	if gen == "" && load == "" {
		return fmt.Errorf("one of -gen or -load is required")
	}
	return datagen.SetupStore(st, gen, load)
}

func runMaterialized(cat *catalog.Catalog, adv *advisor.Advisor, resp *advisor.RecommendResponse, w *workload.Workload) error {
	names, err := adv.Materialize(resp)
	if err != nil {
		return err
	}
	fmt.Printf("\nmaterialized %d indexes: %s\n", len(names), strings.Join(names, ", "))
	opt := optimizer.New(cat)
	ex := executor.New(cat)
	fmt.Printf("%-6s %8s %12s %12s %8s\n", "query", "rows", "scan", "indexed", "speedup")
	for _, e := range w.Queries {
		scan, err := ex.Run(e.Query, nil)
		if err != nil {
			return err
		}
		plan, err := opt.Optimize(e.Query, nil)
		if err != nil {
			return err
		}
		idx, err := ex.Run(e.Query, plan)
		if err != nil {
			return err
		}
		su := float64(scan.Metrics.Duration.Microseconds()+1) / float64(idx.Metrics.Duration.Microseconds()+1)
		fmt.Printf("%-6s %8d %12v %12v %7.1fx\n",
			e.Query.ID, scan.Rows, scan.Metrics.Duration, idx.Metrics.Duration, su)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xia:", err)
	os.Exit(1)
}
