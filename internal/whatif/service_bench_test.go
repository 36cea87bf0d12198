package whatif

import (
	"context"
	"testing"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/querylang"
	"repro/internal/store"
)

var costCallSink QueryEval

// BenchmarkCostCall measures one what-if cost call, the work behind
// every cache miss: OptimizerService.EvaluateQuery on a query of an
// xmark workload under the workload's overtrained configuration (every
// basic candidate), projected to the definitions relevant to the query
// as the engine projects it. The calls are warm: statistics and each
// query's legs are derived before timing starts. One op is one call,
// cycling through the queries.
func BenchmarkCostCall(b *testing.B) {
	ctx := context.Background()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 200, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	cat := catalog.New(st)
	opt := optimizer.New(cat)
	w := datagen.XMarkWorkload(20, 1)
	set, err := candidate.New(cat, &candidate.OptimizerSource{Opt: opt}, candidate.Options{}).Run(ctx, w)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewOptimizerService(opt)
	type call struct {
		q      *querylang.Query
		config []*catalog.IndexDef
	}
	var calls []call
	for _, e := range w.Queries {
		keep := svc.RelevantFilter(e.Query)
		var config []*catalog.IndexDef
		for _, c := range set.Basics {
			if keep(c.Def) {
				config = append(config, c.Def)
			}
		}
		calls = append(calls, call{e.Query, config})
		if _, err := svc.EvaluateQuery(ctx, e.Query, config); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c := calls[i%len(calls)]
		ev, err := svc.EvaluateQuery(ctx, c.q, c.config)
		if err != nil {
			b.Fatal(err)
		}
		costCallSink = ev
		i++
	}
}
