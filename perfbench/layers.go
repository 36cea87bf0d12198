package main

import (
	"time"

	"repro/advisor"
	"repro/internal/search"
)

// endToEndMetrics are the metrics an untraced run reports in its JSON
// line. fail_ratio and costcalls_per_op are printed with them but are 0
// by design on every workload or on some, so the result carries them as
// the failed count and the per-layer whatif.costcalls_per_op instead.
var endToEndMetrics = []string{"setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "net_benefit", "heap_live_mb"}

// perLayerUnits is every per-layer metric of the traced run with its
// unit. Every workload reports all of them; a layer an op does not reach
// reads 0.
var perLayerUnits = map[string]string{
	"server.create_ms":    "ms",
	"server.recommend_ms": "ms",
	"server.delete_ms":    "ms",
	"server.wait_ms":      "ms",
	"server.resp_kb":      "KB",
	"server.non2xx":       "count",

	"workload.parse_ms": "ms",

	"candidate.pipeline_ms":  "ms",
	"candidate.matrix_ms":    "ms",
	"candidate.count":        "count",
	"candidate.enumerated":   "count",
	"candidate.matrix_pairs": "count",

	"pattern.contains_per_op": "count",
	"pattern.overlaps_per_op": "count",
	"pattern.hit_ratio":       "ratio",
	"pattern.interned":        "count",

	"optimizer.calls_per_op":   "count",
	"optimizer.busy_ms_per_op": "ms",
	"optimizer.us_per_call":    "us",

	"whatif.costcalls_per_op":      "count",
	"whatif.lookups_per_op":        "count",
	"whatif.hit_ratio":             "ratio",
	"whatif.projected_hits_per_op": "count",
	"whatif.mean_relevant":         "count",
	"whatif.wait_ms_per_op":        "ms",
	"whatif.self_ms_per_op":        "ms",

	"search.greedy-heuristic_ms": "ms",
	"search.topdown_ms":          "ms",
	"search.greedy-basic_ms":     "ms",
	"search.lp_ms":               "ms",
	"search.race_ms":             "ms",
	"search.evals_per_op":        "count",
	"search.rounds_per_op":       "count",

	"lp.passes":       "count",
	"lp.gap":          "ratio",
	"lp.solve_ms":     "ms",
	"lp.repair_evals": "count",

	"core.assemble_ms": "ms",

	"snapshot.save_ms":        "ms",
	"snapshot.restore_ms":     "ms",
	"snapshot.kb":             "KB",
	"snapshot.restored_evals": "count",

	"runtime.alloc_kb_per_op": "KB",
	"runtime.gc_per_op":       "count",
	"runtime.gc_pause_ms":     "ms",

	"trace.op_p50_ms":   "ms",
	"trace.overhead_ms": "ms",
}

// layerReport collects the traced run's per-layer metrics, starting from
// 0 for every metric.
type layerReport struct {
	metrics map[string]metric
}

func newLayerReport() *layerReport {
	lr := &layerReport{metrics: map[string]metric{}}
	for n, u := range perLayerUnits {
		lr.metrics[n] = metric{0, u}
	}
	return lr
}

// set records a metric; the name must be in perLayerUnits.
func (lr *layerReport) set(name string, v float64) {
	u, ok := perLayerUnits[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	lr.metrics[name] = metric{v, u}
}

// responseLayers accumulates the per-layer fields recommend responses
// carry: search time per strategy, evaluations and rounds, the what-if
// cache windows, and the lp stats.
type responseLayers struct {
	ops        int
	searchMS   map[string][]float64
	evals      int64
	rounds     int64
	cache      advisor.CacheStats
	lpPasses   []float64
	lpGap      []float64
	lpRepair   []float64
	assembleMS []float64
}

func (rl *responseLayers) add(s search.Stats, cache advisor.CacheStats) {
	if rl.searchMS == nil {
		rl.searchMS = map[string][]float64{}
	}
	rl.searchMS[s.Strategy] = append(rl.searchMS[s.Strategy], ms(s.Elapsed))
	rl.evals += s.Evals
	rl.rounds += int64(s.Rounds)
	rl.cache.Hits += cache.Hits
	rl.cache.Misses += cache.Misses
	rl.cache.Evaluations += cache.Evaluations
	rl.cache.ProjectedHits += cache.ProjectedHits
	rl.cache.RelevantDefs += cache.RelevantDefs
	if lp := s.LP; lp != nil {
		rl.lpPasses = append(rl.lpPasses, float64(lp.Passes))
		if lp.Bound != 0 {
			rl.lpGap = append(rl.lpGap, (lp.Bound-lp.Objective)/lp.Bound)
		}
		rl.lpRepair = append(rl.lpRepair, float64(lp.RepairEvals))
	}
}

// report writes the accumulated fields into lr, per op where the metric
// is a per-op count.
func (rl *responseLayers) report(lr *layerReport) {
	ops := float64(max(rl.ops, 1))
	for _, st := range []string{"greedy-heuristic", "topdown", "greedy-basic", "lp", "race"} {
		lr.set("search."+st+"_ms", median(rl.searchMS[st]))
	}
	lr.set("search.evals_per_op", float64(rl.evals)/ops)
	lr.set("search.rounds_per_op", float64(rl.rounds)/ops)
	lr.set("whatif.lookups_per_op", float64(rl.cache.Hits+rl.cache.Misses)/ops)
	lr.set("whatif.hit_ratio", rl.cache.HitRate())
	lr.set("whatif.projected_hits_per_op", float64(rl.cache.ProjectedHits)/ops)
	lr.set("whatif.mean_relevant", rl.cache.MeanRelevant())
	lr.set("lp.passes", median(rl.lpPasses))
	lr.set("lp.gap", median(rl.lpGap))
	lr.set("lp.repair_evals", median(rl.lpRepair))
	if len(rl.assembleMS) > 0 {
		lr.set("core.assemble_ms", median(rl.assembleMS))
	}
}

// evalWait measures, for each search span at idx, how long the search
// waited on its evaluator: the part of the search's interval that its
// "whatif.eval" child spans cover, counted once where concurrent
// evaluations (race members, batch workers) overlap. self is that wait
// less the part covered by the cost calls beneath those evaluations.
func evalWait(spans []span, searches []int) (wait, self time.Duration) {
	in := map[int]int{}
	for k, j := range searches {
		in[j] = k
	}
	evals := make([][][2]int64, len(searches))
	calls := make([][][2]int64, len(searches))
	evalOf := map[int]int{} // eval span -> search position
	for i, s := range spans {
		if k, ok := in[s.Parent]; ok && s.Name == "whatif.eval" {
			evals[k] = append(evals[k], [2]int64{s.Start, s.End})
			evalOf[i] = k
		}
	}
	for _, s := range spans {
		if k, ok := evalOf[s.Parent]; ok && s.Name == "optimizer.call" {
			calls[k] = append(calls[k], [2]int64{s.Start, s.End})
		}
	}
	for k, j := range searches {
		w := time.Duration(covered(spans[j].Start, spans[j].End, evals[k]))
		wait += w
		self += w - time.Duration(covered(spans[j].Start, spans[j].End, calls[k]))
	}
	return wait, self
}

// solveMS is the median self time in ms of the search spans at idx: the
// search's time less its evaluator wait, which for lp is the relaxation
// solve and rounding.
func solveMS(spans []span, searches []int) float64 {
	self := selfTimes(spans)
	xs := make([]float64, len(searches))
	for k, j := range searches {
		xs[k] = ms(self[j])
	}
	return median(xs)
}
