package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/search"
	"repro/internal/whatif"
)

// synth10k runs the lp strategy with one closed-loop client on a fresh
// synthetic 10k-candidate space per op, priced through a real what-if
// engine over the synthetic backend. The space is generated before the
// op's timer starts.
type synth10k struct {
	seed uint64
	rec  *recorder

	strat search.Strategy
	calls int64 // cost-service calls of the ops so far

	resp responseLayers
}

// synthCandidates is the synthetic space's basic-candidate count.
const synthCandidates = 10000

func (b *synth10k) costCalls() (int64, time.Duration) { return b.calls, 0 }

func (b *synth10k) setup(ctx context.Context) error {
	strat, err := search.Lookup("lp")
	if err != nil {
		return err
	}
	b.strat = strat
	// Warm-up: one search on a space outside the measured sequence.
	sp, _ := search.NewSyntheticWhatIfSpace(synthCandidates, ^b.seed, whatif.Options{})
	_, err = strat.Search(ctx, sp)
	return err
}

func (b *synth10k) teardown() {}

func (b *synth10k) op(ctx context.Context, i int, traced bool) opOutcome {
	sp, eng := search.NewSyntheticWhatIfSpace(synthCandidates, mix(b.seed, uint64(i)), whatif.Options{})
	root, sid := -1, -1
	if traced {
		root = b.rec.begin("op", i, -1)
		sid = b.rec.begin("search.lp", i, root)
		sp.Eval = timeEvaluator(sp.Eval, b.rec, i, sid)
	}
	start := time.Now()
	res, err := b.strat.Search(ctx, sp)
	lat := time.Since(start)
	b.rec.end(sid)
	b.rec.end(root)
	st := eng.Stats()
	b.calls += st.Evaluations
	if err != nil {
		return opOutcome{latency: lat, fail: "search: " + err.Error()}
	}
	if fail := checkSynth(res, sp.BudgetPages); fail != "" {
		return opOutcome{latency: lat, fail: fail}
	}
	if traced {
		b.resp.ops++
		b.resp.add(res.Stats, st)
	}
	return opOutcome{latency: lat, net: res.Eval.Net}
}

// checkSynth applies the output checks to one lp search.
func checkSynth(res *search.Result, budget int64) string {
	switch lp := res.Stats.LP; {
	case res.Degraded:
		return "degraded result"
	case res.Pages > budget:
		return fmt.Sprintf("configuration of %d pages over budget %d", res.Pages, budget)
	case res.Eval.Net < 0:
		return fmt.Sprintf("negative net benefit %.1f", res.Eval.Net)
	case lp == nil:
		return "lp stats missing"
	case lp.Bound < lp.Objective:
		return fmt.Sprintf("lp bound %.1f below objective %.1f", lp.Bound, lp.Objective)
	}
	return ""
}

// layers reports the lp stats, the engine's counters and, from the
// spans, evaluator wait and lp solve time (search time less wait).
func (b *synth10k) layers(ctx context.Context, win window, lr *layerReport) error {
	b.resp.report(lr)
	spans := b.rec.snapshot()
	searches := byName(spans)["search.lp"]
	wait, self := evalWait(spans, searches)
	n := float64(max(len(searches), 1))
	lr.set("whatif.wait_ms_per_op", ms(wait)/n)
	lr.set("whatif.self_ms_per_op", ms(self)/n)
	lr.set("lp.solve_ms", solveMS(spans, searches))
	return nil
}
