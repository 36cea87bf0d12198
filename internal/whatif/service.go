// Package whatif is the what-if cost-evaluation service: the boundary
// between index-advisor search and the optimizer backend that prices
// hypothetical index configurations (the Evaluate Indexes EXPLAIN mode,
// paper §2.3).
//
// The package has two layers:
//
//   - CostService is the minimal pluggable interface: estimate one
//     query's cost under one hypothetical configuration. The in-process
//     implementation (OptimizerService) wraps internal/optimizer; a
//     future backend (a real DB2 EXPLAIN connection, a learned cost
//     model) only has to implement this interface.
//   - Engine turns a CostService into something a search can hammer:
//     evaluations are decomposed into per-(query, projected sub-config)
//     atoms via relevance projection (only the definitions whose
//     patterns can serve a query are part of its cache key and its
//     optimizer call; a Bound decides each definition's relevance to
//     every bound query once, on first sight, and reuses the answer),
//     the atoms fan out across a bounded worker pool,
//     results are memoized behind a sharded cache with
//     singleflight-style deduplication, and hit/miss/evaluation
//     counters are exposed for benchmarking.
package whatif

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/querylang"
)

// QueryEval is the outcome of costing one query under a hypothetical
// index configuration.
type QueryEval struct {
	// CostNoIndexes is the document-scan cost (the "original cost").
	CostNoIndexes float64
	// Cost is the estimated cost under the configuration.
	Cost float64
	// UsedIndexes names the configuration indexes the plan chose,
	// sorted.
	UsedIndexes []string
}

// Benefit is the non-negative cost reduction of the configuration.
func (e QueryEval) Benefit() float64 {
	if b := e.CostNoIndexes - e.Cost; b > 0 {
		return b
	}
	return 0
}

// CostService estimates query costs under hypothetical index
// configurations. Implementations must be safe for concurrent use: the
// Engine calls EvaluateQuery from many goroutines.
type CostService interface {
	// EvaluateQuery estimates the cost of q under config. The config
	// defs passed in are already restricted to q's collection — and,
	// when the service also implements RelevanceService, to the defs
	// its own RelevantFilter accepted for q, so the cost must not
	// depend on definitions the filter rejects.
	EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error)
}

// RelevanceService is the optional CostService extension behind the
// engine's relevance projection. RelevantFilter returns a predicate
// reporting whether an index definition can influence q's cost under
// this service — an over-approximation is fine (a kept-but-useless def
// only costs cache sharing), but the predicate must never reject a
// definition that can change the result, or projection stops being
// cost-preserving. Services that do not implement it fall back to
// collection-only projection.
type RelevanceService interface {
	RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool
}

// OptimizerService implements CostService over the in-process cost-based
// optimizer via its Evaluate Indexes EXPLAIN mode.
type OptimizerService struct {
	Opt *optimizer.Optimizer
	// VirtualOnly hides the catalog's real indexes so the evaluation
	// isolates the hypothetical configuration — the advisor's mode.
	VirtualOnly bool
}

// NewOptimizerService returns the advisor-mode (virtual-only) optimizer
// costing service.
func NewOptimizerService(opt *optimizer.Optimizer) *OptimizerService {
	return &OptimizerService{Opt: opt, VirtualOnly: true}
}

// RelevantFilter implements RelevanceService: an index definition is
// relevant to q iff the optimizer's own index-matching rule
// (type match + pattern containment) can apply it to one of q's legs.
func (s *OptimizerService) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	return optimizer.RelevantFilter(q)
}

// EvaluateQuery implements CostService.
func (s *OptimizerService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	if err := ctx.Err(); err != nil {
		return QueryEval{}, err
	}
	res, err := s.Opt.EvaluateIndexes(q, config, s.VirtualOnly)
	if err != nil {
		return QueryEval{}, err
	}
	return QueryEval{
		CostNoIndexes: res.CostNoIndexes,
		Cost:          res.Cost,
		UsedIndexes:   res.UsedIndexes,
	}, nil
}
