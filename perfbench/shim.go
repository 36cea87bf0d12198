package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/whatif"
)

// costShim sits at the what-if cost boundary (the optimizer's Evaluate
// Indexes call, one DB2 EXPLAIN round trip in the paper's system) through
// advisor.WithCostWrapper. It counts and times every call and, in the
// traced run, records a span under whichever benchmark span is in the
// call's context.
type costShim struct {
	inner advisor.CostService
	rec   *recorder
	calls atomic.Int64
	busy  atomic.Int64 // ns spent inside the wrapped service
}

// EvaluateQuery implements whatif.CostService.
func (s *costShim) EvaluateQuery(ctx context.Context, q *querylang.Query, cfg []*catalog.IndexDef) (whatif.QueryEval, error) {
	start := time.Now()
	ev, err := s.inner.EvaluateQuery(ctx, q, cfg)
	d := time.Since(start)
	s.calls.Add(1)
	s.busy.Add(int64(d))
	if ref, ok := spanFrom(ctx); ok {
		s.rec.add("optimizer.call", ref.op, ref.id, start, d)
	}
	return ev, err
}

// relevantShim is a costShim over a service that also filters relevance.
// The engine projects atoms only when its service implements
// whatif.RelevanceService, so a shim without RelevantFilter would
// silently turn projection off and measure a different program.
type relevantShim struct {
	*costShim
	rel whatif.RelevanceService
}

// RelevantFilter implements whatif.RelevanceService by delegation.
func (s relevantShim) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	return s.rel.RelevantFilter(q)
}

// wrap is the advisor.WithCostWrapper hook: it installs the shim over the
// backend, keeping the backend's relevance filter visible to the engine.
func (s *costShim) wrap(svc advisor.CostService) advisor.CostService {
	s.inner = svc
	if rel, ok := svc.(whatif.RelevanceService); ok {
		return relevantShim{costShim: s, rel: rel}
	}
	return s
}

// counts reads the shim's call count and busy time.
func (s *costShim) counts() (int64, time.Duration) {
	return s.calls.Load(), time.Duration(s.busy.Load())
}

// timedEval wraps a search.Evaluator for the traced run: every call is a
// "whatif.eval" span under the search span, and its context carries the
// span so cost calls made on its behalf nest beneath it. It forwards the
// batch entry point, so strategies take the same path as unwrapped.
type timedEval struct {
	inner  search.Evaluator
	rec    *recorder
	op     int
	parent int
}

func (t *timedEval) Evaluate(ctx context.Context, cfg []*search.Candidate) (*search.Eval, error) {
	id := t.rec.begin("whatif.eval", t.op, t.parent)
	defer t.rec.end(id)
	return t.inner.Evaluate(withSpan(ctx, t.op, id), cfg)
}

func (t *timedEval) Workers() int { return t.inner.Workers() }

type timedBatchEval struct {
	*timedEval
	batch search.BatchEvaluator
}

func (t timedBatchEval) EvaluateBatch(ctx context.Context, base, cands []*search.Candidate) ([]*search.Eval, error) {
	id := t.rec.begin("whatif.eval", t.op, t.parent)
	defer t.rec.end(id)
	return t.batch.EvaluateBatch(withSpan(ctx, t.op, id), base, cands)
}

// timeEvaluator returns ev wrapped in spans under the parent span,
// keeping its batch entry point when it has one.
func timeEvaluator(ev search.Evaluator, rec *recorder, op, parent int) search.Evaluator {
	t := &timedEval{inner: ev, rec: rec, op: op, parent: parent}
	if be, ok := ev.(search.BatchEvaluator); ok {
		return timedBatchEval{timedEval: t, batch: be}
	}
	return t
}
