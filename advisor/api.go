package advisor

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/candidate"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/whatif"
)

// APIVersion is the wire-format version of the request/response DTOs.
// Requests may carry it explicitly; an unknown version is rejected. The
// v1 JSON shape is pinned by a golden test and the exported-identifier
// baseline in api/v1.txt.
const APIVersion = "v1"

// ErrInvalidRequest is the sentinel every request-validation failure
// wraps; the xiad server maps it to HTTP 400.
var ErrInvalidRequest = errors.New("advisor: invalid request")

// ErrCostServiceUnavailable is the sentinel a recommendation fails
// with when the costing circuit breaker (WithResilience) is open and
// no best-so-far result could be served; the xiad server maps it to
// HTTP 503 with a Retry-After hint. Degraded runs that do return a
// result carry RecommendResponse.Degraded instead of this error.
var ErrCostServiceUnavailable = whatif.ErrCircuitOpen

// RequestError reports one invalid request field. It unwraps to
// ErrInvalidRequest.
type RequestError struct {
	// Field is the JSON field name, e.g. "budgetPages".
	Field string
	// Reason says what a valid value looks like.
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("advisor: request field %q: %s", e.Field, e.Reason)
}

func (e *RequestError) Unwrap() error { return ErrInvalidRequest }

// Stats aliases: the run statistics blocks of a RecommendResponse. They
// are shared with the internal engines so counters never drift from
// what the advisor actually measured; their JSON shape is part of the
// pinned v1 wire format.
type (
	// SearchStats summarize one strategy run (rounds, wall time, cache
	// counts; winner and members for the race portfolio).
	SearchStats = search.Stats
	// TraceEvent is one structured search step.
	TraceEvent = search.TraceEvent
	// Trace is a structured search trace.
	Trace = search.Trace
	// CacheStats count the what-if work of one run: the engine and the
	// resilience middleware charge each request's own counters, so the
	// counts are exact while other requests share the advisor.
	CacheStats = whatif.Stats
	// ResilienceStats are the costing resilience middleware's counters
	// (retries, breaker trips and rejects, call timeouts, recovered
	// panics), nested in CacheStats and reported by Advisor.Resilience.
	ResilienceStats = whatif.ResilienceStats
	// RelevanceStats summarize per-query relevant-candidate counts: how
	// many of the session's candidates can serve each workload query at
	// all, as the engine's relevance projection sees it.
	RelevanceStats = whatif.RelevanceStats
	// KernelStats are pattern-containment kernel counter deltas for one
	// run.
	KernelStats = pattern.KernelStats
	// PipelineStats describe the candidate pipeline run behind a
	// session's candidate space.
	PipelineStats = candidate.Stats
)

// RecommendRequest asks a session for one recommendation. The zero
// value is a valid request: current API version, the advisor's default
// strategy and budget, no timeout, no trace or DAG payload.
type RecommendRequest struct {
	// APIVersion pins the wire format; empty means the current version.
	APIVersion string `json:"apiVersion,omitempty"`
	// Strategy names the search strategy (canonical name or alias);
	// empty uses the advisor's default.
	Strategy string `json:"strategy,omitempty"`
	// BudgetPages bounds the configuration size in pages (0 with
	// BudgetKB 0 = the advisor's default budget).
	BudgetPages int64 `json:"budgetPages,omitempty"`
	// BudgetKB is the budget in kilobytes; exclusive with BudgetPages.
	BudgetKB int64 `json:"budgetKB,omitempty"`
	// UnlimitedBudget requests the unconstrained (overtrained-baseline)
	// configuration even when the advisor has a default budget;
	// exclusive with BudgetPages and BudgetKB.
	UnlimitedBudget bool `json:"unlimitedBudget,omitempty"`
	// TimeoutMS bounds the recommendation's wall-clock (0 = the
	// advisor's WithDeadline); with the race strategy, an expired
	// timeout returns the best configuration any member finished
	// instead of failing.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// IncludeTrace attaches the structured search trace to the
	// response. Without it the search keeps no trace at all; a
	// streaming request still delivers every trace event, and
	// Search.Truncated reads the same either way.
	IncludeTrace bool `json:"includeTrace,omitempty"`
	// IncludeDAG attaches the rendered candidate containment DAG to the
	// response.
	IncludeDAG bool `json:"includeDAG,omitempty"`
}

// maxTimeoutMS is the largest request timeout in milliseconds that
// converts to a time.Duration without overflow.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// validate normalizes the request against the advisor's defaults,
// returning the canonical strategy and the effective page budget.
func (r *RecommendRequest) validate(a *Advisor) (strategy string, budgetPages int64, err error) {
	if r.APIVersion != "" && r.APIVersion != APIVersion {
		return "", 0, &RequestError{Field: "apiVersion",
			Reason: fmt.Sprintf("unsupported version %q (this advisor speaks %q)", r.APIVersion, APIVersion)}
	}
	strategy = r.Strategy
	if strategy == "" {
		strategy = a.Strategy()
	}
	if strategy, err = search.Canonical(strategy); err != nil {
		return "", 0, &RequestError{Field: "strategy", Reason: err.Error()}
	}
	if r.BudgetPages < 0 {
		return "", 0, &RequestError{Field: "budgetPages", Reason: "must be >= 0 (0 = unlimited)"}
	}
	if r.BudgetKB < 0 || r.BudgetKB > maxBudgetKB {
		return "", 0, &RequestError{Field: "budgetKB",
			Reason: fmt.Sprintf("must be in [0, %d] (0 = unlimited)", maxBudgetKB)}
	}
	if r.BudgetPages > 0 && r.BudgetKB > 0 {
		return "", 0, &RequestError{Field: "budgetKB", Reason: "budgetPages and budgetKB are exclusive"}
	}
	if r.UnlimitedBudget && (r.BudgetPages > 0 || r.BudgetKB > 0) {
		return "", 0, &RequestError{Field: "unlimitedBudget", Reason: "exclusive with budgetPages and budgetKB"}
	}
	if r.TimeoutMS < 0 || r.TimeoutMS > maxTimeoutMS {
		return "", 0, &RequestError{Field: "timeoutMs",
			Reason: fmt.Sprintf("must be in [0, %d] (0 = no timeout)", maxTimeoutMS)}
	}
	budgetPages = a.BudgetPages()
	switch {
	case r.UnlimitedBudget:
		budgetPages = 0
	case r.BudgetPages > 0:
		budgetPages = r.BudgetPages
	case r.BudgetKB > 0:
		budgetPages = budgetKBToPages(r.BudgetKB)
	}
	return strategy, budgetPages, nil
}

// Index is one recommended index in a response.
type Index struct {
	// Name is the public index name (XIA_IDX<n>), matching the DDL and
	// the per-query analysis.
	Name string `json:"name"`
	// Collection is the indexed collection.
	Collection string `json:"collection"`
	// Pattern is the XML pattern the index covers.
	Pattern string `json:"pattern"`
	// Type is the SQL type of the indexed values.
	Type string `json:"type"`
	// Pages is the index's estimated size.
	Pages int64 `json:"pages"`
	// Entries is the index's estimated entry count.
	Entries int64 `json:"entries"`
	// DDL is the CREATE INDEX statement.
	DDL string `json:"ddl"`
}

// QueryCost is one query's row in the recommendation analysis (paper
// Figure 5).
type QueryCost struct {
	ID   string `json:"id"`
	Text string `json:"text"`
	// Weight is the query's workload weight.
	Weight float64 `json:"weight"`
	// CostNoIndexes, CostRecommended, CostOvertrained are the estimated
	// costs with no indexes, under the recommendation, and under the
	// overtrained all-basic-candidates configuration.
	CostNoIndexes   float64 `json:"costNoIndexes"`
	CostRecommended float64 `json:"costRecommended"`
	CostOvertrained float64 `json:"costOvertrained"`
	// IndexesUsed names the recommended indexes the query's plan uses.
	IndexesUsed []string `json:"indexesUsed,omitempty"`
}

// CandidateSummary describes a session's candidate space.
type CandidateSummary struct {
	// Basics is the deduplicated basic candidate count; Total adds the
	// generalized candidates.
	Basics int `json:"basics"`
	Total  int `json:"total"`
	// BasicsPages is the size of the overtrained all-basics
	// configuration — the budget-sweep baseline.
	BasicsPages int64 `json:"basicsPages"`
	// DAGNodes/DAGEdges/DAGRoots describe the containment DAG.
	DAGNodes int `json:"dagNodes"`
	DAGEdges int `json:"dagEdges"`
	DAGRoots int `json:"dagRoots"`
}

// RecommendResponse is one recommendation: the configuration, its
// estimated benefits, the per-query analysis, and the run's statistics.
// Its JSON shape is the v1 wire format, pinned by a golden test.
type RecommendResponse struct {
	// APIVersion stamps the wire format the response speaks.
	APIVersion string `json:"apiVersion"`
	// Workload names the session's workload.
	Workload string `json:"workload,omitempty"`
	// Strategy is the canonical name of the strategy that ran.
	Strategy string `json:"strategy"`
	// BudgetPages is the effective disk budget (0 = unlimited).
	BudgetPages int64 `json:"budgetPages,omitempty"`
	// Indexes is the recommended configuration.
	Indexes []Index `json:"indexes"`
	// TotalPages is the configuration size.
	TotalPages int64 `json:"totalPages"`
	// QueryBenefit, UpdateCost, NetBenefit summarize the estimated
	// workload improvement.
	QueryBenefit float64 `json:"queryBenefit"`
	UpdateCost   float64 `json:"updateCost"`
	NetBenefit   float64 `json:"netBenefit"`
	// Degraded marks a best-so-far response: the what-if cost service
	// became unavailable mid-run (circuit breaker open) and the run
	// returned the best configuration evaluated before the outage
	// instead of failing. DegradedReason says what gave out.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// PerQuery is the recommendation analysis (Figure 5).
	PerQuery []QueryCost `json:"perQuery"`
	// Candidates summarizes the session's candidate space.
	Candidates CandidateSummary `json:"candidates"`
	// Pipeline, Search, Cache, Kernel are the run's statistics blocks.
	Pipeline PipelineStats `json:"pipeline"`
	Search   SearchStats   `json:"search"`
	Cache    CacheStats    `json:"cache"`
	Kernel   KernelStats   `json:"kernel"`
	// Relevance is the per-query relevant-candidate distribution over
	// the session's candidate space.
	Relevance RelevanceStats `json:"relevance"`
	// Evaluations counts per-query what-if evaluations issued during
	// this run (cache misses only).
	Evaluations int64 `json:"evaluations"`
	// ElapsedMS is the run's wall-clock in milliseconds.
	ElapsedMS int64 `json:"elapsedMs"`
	// Trace is the structured search trace (IncludeTrace requests
	// only).
	Trace Trace `json:"trace,omitempty"`
	// DAGText is the rendered containment DAG (IncludeDAG requests
	// only).
	DAGText string `json:"dagText,omitempty"`
}

// Elapsed is the run's wall-clock as a duration.
func (r *RecommendResponse) Elapsed() time.Duration {
	return time.Duration(r.ElapsedMS) * time.Millisecond
}

// DDL returns the CREATE INDEX statements, one per recommended index.
func (r *RecommendResponse) DDL() []string {
	out := make([]string, len(r.Indexes))
	for i, idx := range r.Indexes {
		out[i] = idx.DDL
	}
	return out
}

// Report renders the recommendation as text: configuration, DDL,
// benefits, and the per-query analysis table (the paper's Figure 5
// screen).
func (r *RecommendResponse) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== XML Index Advisor recommendation ===\n")
	fmt.Fprintf(&sb, "candidates: %d basic, %d total (DAG: %d edges, %d roots)\n",
		r.Candidates.Basics, r.Candidates.Total, r.Candidates.DAGEdges, r.Candidates.DAGRoots)
	fmt.Fprintf(&sb, "recommended configuration: %d indexes, %d pages\n", len(r.Indexes), r.TotalPages)
	for _, idx := range r.Indexes {
		fmt.Fprintf(&sb, "  %s\n", idx.DDL)
	}
	fmt.Fprintf(&sb, "estimated query benefit: %.1f   update cost: %.1f   net: %.1f\n",
		r.QueryBenefit, r.UpdateCost, r.NetBenefit)
	fmt.Fprintf(&sb, "\n%-6s %10s %12s %12s  %s\n", "query", "no-index", "recommended", "overtrained", "indexes used")
	for _, qc := range r.PerQuery {
		fmt.Fprintf(&sb, "%-6s %10.1f %12.1f %12.1f  %s\n",
			qc.ID, qc.CostNoIndexes, qc.CostRecommended, qc.CostOvertrained, strings.Join(qc.IndexesUsed, ","))
	}
	fmt.Fprintf(&sb, "\nadvisor runtime: %v (%d what-if evaluations, %d cache hits)\n",
		r.Elapsed().Round(time.Millisecond), r.Evaluations, r.Cache.Hits)
	return sb.String()
}
