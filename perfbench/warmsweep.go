package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/search"
)

// warmSweep drives the advisor facade in-process with one closed-loop
// client. Sessions over the xmark, tpox and paper workloads are opened
// and swept once during set-up; one op is a whole sweep (every strategy
// at every budget share on every session, 60 Session.Recommend calls) and
// then one snapshot round trip of a rotating session: Session.Snapshot,
// Advisor.Restore on a second, identically built Advisor over the same
// catalog (a daemon restart), and the session continues there.
type warmSweep struct {
	seed uint64
	rec  *recorder

	cat       *catalog.Catalog
	workloads []*advisor.Workload
	advs      [2]*advisor.Advisor
	shims     [2]*costShim
	sess      []*advisor.Session
	home      []int // index into advs of each session's advisor
	basics    []int64

	resp      responseLayers
	saveMS    []float64
	restoreMS []float64
	snapKB    []float64
	restored  []float64 // evaluations of the first recommend after restore
}

func (b *warmSweep) costCalls() (int64, time.Duration) {
	c0, b0 := b.shims[0].counts()
	c1, b1 := b.shims[1].counts()
	return c0 + c1, b0 + b1
}

func (b *warmSweep) setup(ctx context.Context) error {
	cat, err := buildCatalog()
	if err != nil {
		return err
	}
	b.cat = cat
	for k := range b.advs {
		b.shims[k] = &costShim{rec: b.rec}
		if b.advs[k], err = advisor.New(cat, advisor.WithCostWrapper(b.shims[k].wrap)); err != nil {
			return err
		}
	}
	b.workloads = sweepWorkloads()
	b.sess, b.home, b.basics = nil, nil, nil
	for _, w := range b.workloads {
		s, err := b.advs[0].Open(ctx, w)
		if err != nil {
			return fmt.Errorf("open %s: %w", w.Name, err)
		}
		b.sess = append(b.sess, s)
		b.home = append(b.home, 0)
		b.basics = append(b.basics, s.Candidates().BasicsPages)
	}
	// The warm-up sweep fills the what-if cache and the benefit matrices.
	if fail := b.sweep(ctx, sweepOrder(^b.seed, 0, len(b.sess))); fail != "" {
		return fmt.Errorf("warm-up sweep: %s", fail)
	}
	return nil
}

func (b *warmSweep) teardown() {
	for _, s := range b.sess {
		s.Close()
	}
	b.sess = nil
}

// sweep runs the requests in order untraced and returns the first failed
// check.
func (b *warmSweep) sweep(ctx context.Context, order []sweepRequest) string {
	for _, rq := range order {
		if _, fail := b.recommend(ctx, b.sess[rq.session], rq, -1, -1, false); fail != "" {
			return fail
		}
	}
	return ""
}

// recommend serves one sweep request and checks it.
func (b *warmSweep) recommend(ctx context.Context, s *advisor.Session, rq sweepRequest, op, root int, traced bool) (*advisor.RecommendResponse, string) {
	budget := budgetFor(b.basics[rq.session], rq.percent)
	id := -1
	if traced {
		id = b.rec.begin("core.recommend", op, root)
	}
	t0 := time.Now()
	resp, err := s.Recommend(ctx, advisor.RecommendRequest{Strategy: rq.strategy, BudgetPages: budget})
	d := time.Since(t0)
	b.rec.end(id)
	if err != nil {
		return nil, fmt.Sprintf("recommend %s/%s/%d%%: %v", b.workloads[rq.session].Name, rq.strategy, rq.percent, err)
	}
	if fail := checkResponse(resp, budget); fail != "" {
		return nil, fmt.Sprintf("recommend %s/%s/%d%%: %s", b.workloads[rq.session].Name, rq.strategy, rq.percent, fail)
	}
	if traced {
		b.resp.add(resp.Search, resp.Cache)
		b.resp.assembleMS = append(b.resp.assembleMS, ms(d-resp.Search.Elapsed))
	}
	return resp, ""
}

func (b *warmSweep) op(ctx context.Context, i int, traced bool) opOutcome {
	order := sweepOrder(b.seed, i, len(b.sess))
	r := i % len(b.sess) // the session this op moves to the other advisor
	root := -1
	if traced {
		root = b.rec.begin("op", i, -1)
		defer b.rec.end(root)
	}
	start := time.Now()
	fail := func(msg string) opOutcome { return opOutcome{latency: time.Since(start), fail: msg} }

	// The sweep; the moving session's first request is repeated after the
	// restore and must come back the same.
	net := 0.0
	var (
		probe  sweepRequest
		want   []advisor.Index
		probed bool
	)
	for _, rq := range order {
		resp, msg := b.recommend(ctx, b.sess[rq.session], rq, i, root, traced)
		if msg != "" {
			return fail(msg)
		}
		net += resp.NetBenefit
		if rq.session == r && !probed {
			probe, want, probed = rq, resp.Indexes, true
		}
	}

	// The snapshot round trip.
	var buf bytes.Buffer
	id := -1
	if traced {
		id = b.rec.begin("snapshot.save", i, root)
	}
	t0 := time.Now()
	err := b.sess[r].Snapshot(&buf)
	save := time.Since(t0)
	b.rec.end(id)
	if err != nil {
		return fail("snapshot: " + err.Error())
	}
	dst := 1 - b.home[r]
	callsBefore, _ := b.shims[dst].counts()
	if traced {
		id = b.rec.begin("snapshot.restore", i, root)
	}
	t0 = time.Now()
	restored, err := b.advs[dst].Restore(ctx, bytes.NewReader(buf.Bytes()))
	restore := time.Since(t0)
	b.rec.end(id)
	if err != nil {
		return fail("restore: " + err.Error())
	}
	resp, msg := b.recommend(ctx, restored, probe, i, root, traced)
	if msg != "" {
		return fail("after restore: " + msg)
	}
	if calls, _ := b.shims[dst].counts(); calls != callsBefore || resp.Evaluations != 0 {
		return fail(fmt.Sprintf("first recommend after restore made %d cost-service calls", calls-callsBefore))
	}
	if !slices.EqualFunc(resp.Indexes, want, func(a, b advisor.Index) bool { return a.DDL == b.DDL }) {
		return fail("first recommend after restore returned different indexes")
	}
	b.sess[r].Close()
	b.sess[r], b.home[r] = restored, dst
	out := opOutcome{latency: time.Since(start), net: net}
	if traced {
		b.saveMS = append(b.saveMS, ms(save))
		b.restoreMS = append(b.restoreMS, ms(restore))
		b.snapKB = append(b.snapKB, float64(buf.Len())/1024)
		b.restored = append(b.restored, float64(resp.Evaluations))
		b.resp.ops++
	}
	return out
}

// layers reports the traced run's per-layer metrics: the recommend
// responses' search, cache and lp blocks, assembly time (Recommend call
// time less search time), the snapshot round trips, the cost shims'
// counters over the timed window, and an in-process replay of one sweep
// for evaluator wait and lp solve time.
func (b *warmSweep) layers(ctx context.Context, win window, lr *layerReport) error {
	win.reportOptimizer(lr)
	b.resp.report(lr)
	lr.set("snapshot.save_ms", median(b.saveMS))
	lr.set("snapshot.restore_ms", median(b.restoreMS))
	lr.set("snapshot.kb", median(b.snapKB))
	lr.set("snapshot.restored_evals", median(b.restored))
	return b.replay(ctx, lr)
}

// replay prepares the three workloads on a core advisor, warms them with
// one sweep, and then runs one sweep's searches directly on each
// session's Prepared.Space() with a timed evaluator. Evaluator wait per
// sweep and lp solve time (lp search time less its evaluator wait) come
// from its spans.
func (b *warmSweep) replay(ctx context.Context, lr *layerReport) error {
	shim := &costShim{rec: b.rec}
	opts := core.DefaultOptions()
	opts.CostWrapper = shim.wrap
	a := core.New(b.cat, opts)
	preps := make([]*core.Prepared, len(b.workloads))
	for k, w := range b.workloads {
		p, err := a.Prepare(ctx, w)
		if err != nil {
			return err
		}
		preps[k] = p
	}
	order := sweepOrder(b.seed, 0, len(preps))
	for _, rq := range order {
		if _, err := preps[rq.session].RecommendWith(ctx, core.SearchKind(rq.strategy), budgetFor(b.basics[rq.session], rq.percent)); err != nil {
			return err
		}
	}
	root := b.rec.begin("replay", 0, -1)
	var searches, lps []int
	for _, rq := range order {
		strat, err := search.Lookup(rq.strategy)
		if err != nil {
			return err
		}
		sid := b.rec.begin("search."+rq.strategy, 0, root)
		sp := preps[rq.session].Space().WithBudget(budgetFor(b.basics[rq.session], rq.percent))
		sp.Eval = timeEvaluator(sp.Eval, b.rec, 0, sid)
		_, err = strat.Search(ctx, sp)
		b.rec.end(sid)
		if err != nil {
			return err
		}
		searches = append(searches, sid)
		if rq.strategy == "lp" {
			lps = append(lps, sid)
		}
	}
	b.rec.end(root)
	spans := b.rec.snapshot()
	wait, self := evalWait(spans, searches)
	lr.set("whatif.wait_ms_per_op", ms(wait))
	lr.set("whatif.self_ms_per_op", ms(self))
	lr.set("lp.solve_ms", solveMS(spans, lps))
	return nil
}
