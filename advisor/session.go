package advisor

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/whatif"
)

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("advisor: session closed")

// Session is a long-lived handle on one prepared workload: the
// candidate pipeline has run and the what-if evaluator is bound, so
// every Recommend — any strategy, any budget — reuses the candidate
// space and the warm what-if cache. Sessions are safe for concurrent
// use; simultaneous Recommend calls share the cache and each sees only
// its own trace.
type Session struct {
	adv     *Advisor
	prep    *core.Prepared
	name    string
	created time.Time
	// snapPath is the workload-keyed snapshot file (empty without
	// WithSnapshotDir); restoredFrom records the warm-start source.
	snapPath     string
	restoredFrom string

	mu        sync.Mutex
	closed    bool
	lastSaved time.Time
}

// Workload names the session's workload.
func (s *Session) Workload() string { return s.name }

// Created is the session's open time.
func (s *Session) Created() time.Time { return s.created }

// Advisor returns the advisor the session was opened on.
func (s *Session) Advisor() *Advisor { return s.adv }

// Candidates summarizes the session's candidate space.
func (s *Session) Candidates() CandidateSummary {
	basics := s.prep.Basics()
	dag := s.prep.DAG()
	sum := CandidateSummary{
		Basics:   len(basics),
		Total:    len(dag.Nodes),
		DAGNodes: len(dag.Nodes),
		DAGEdges: dag.Edges(),
		DAGRoots: len(dag.Roots),
	}
	for _, c := range basics {
		sum.BasicsPages += c.Pages()
	}
	return sum
}

// Pipeline returns the candidate pipeline's stats for the session's
// space.
func (s *Session) Pipeline() PipelineStats { return s.prep.CandidateStats() }

// DAGText renders the session's candidate containment DAG.
func (s *Session) DAGText() string { return s.prep.DAG().Render() }

// Close marks the session closed; subsequent recommendations fail with
// ErrSessionClosed. In-flight recommendations finish normally. Closing
// an already-closed session is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// checkOpen fails if the session was closed.
func (s *Session) checkOpen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	return nil
}

// Recommend serves one recommendation request on the session.
func (s *Session) Recommend(ctx context.Context, req RecommendRequest) (*RecommendResponse, error) {
	return s.recommend(ctx, req, nil)
}

// RecommendStream serves one request while streaming progress events:
// an EventSpace with the candidate-space summary, one EventTrace per
// search step as it happens, an EventCounters with the run's cache
// counts and kernel deltas, and a terminal EventResult (or EventError). The
// channel closes after the terminal event. Cancelling ctx aborts both
// the search and the stream; an abandoned consumer therefore cancels
// rather than leaks.
//
// Trace events are lossy under backpressure: search strategies emit
// them synchronously on the search path, so when the consumer falls
// more than a buffer behind, trace events are dropped (counted in the
// EventCounters' Dropped field) rather than stalling the search. The
// space, counters, and terminal events are never dropped.
func (s *Session) RecommendStream(ctx context.Context, req RecommendRequest) <-chan Event {
	ch := make(chan Event, 64)
	go func() {
		var (
			seqMu   sync.Mutex
			seq     int
			dropped int
		)
		defer close(ch)
		// A panic anywhere on the streaming path (a custom strategy, a
		// conversion bug) must terminate the stream with a typed error
		// event, never kill the process or strand the consumer on an
		// open channel. The send is non-blocking: a consumer that went
		// away gets the channel close instead.
		defer func() {
			if r := recover(); r != nil {
				err := whatif.NewPanicError("advisor: recommend stream", r)
				seqMu.Lock()
				e := Event{Type: EventError, Error: err.Error(), Seq: seq}
				seqMu.Unlock()
				select {
				case ch <- e:
				default:
				}
			}
		}()
		// send delivers a must-arrive event, waiting for the consumer
		// (or its cancellation); sendTrace never blocks the search.
		send := func(e Event) {
			seqMu.Lock()
			e.Seq = seq
			seq++
			seqMu.Unlock()
			select {
			case ch <- e:
			case <-ctx.Done():
			}
		}
		sendTrace := func(e Event) {
			seqMu.Lock()
			defer seqMu.Unlock()
			e.Seq = seq
			select {
			case ch <- e:
				seq++
			default:
				dropped++
			}
		}
		sum := s.Candidates()
		pipe := s.Pipeline()
		send(Event{Type: EventSpace, Candidates: &sum, Pipeline: &pipe})
		resp, err := s.recommend(ctx, req, func(te search.TraceEvent) {
			sendTrace(Event{Type: EventTrace, Trace: &te})
		})
		if err != nil {
			send(Event{Type: EventError, Error: err.Error()})
			return
		}
		cache, kernel := resp.Cache, resp.Kernel
		seqMu.Lock()
		nDropped := dropped
		seqMu.Unlock()
		send(Event{Type: EventCounters, Cache: &cache, Kernel: &kernel, Dropped: nDropped})
		send(Event{Type: EventResult, Response: resp})
	}()
	return ch
}

// recommend is the shared request path: validate, apply the deadline,
// search, convert.
func (s *Session) recommend(ctx context.Context, req RecommendRequest, obs func(search.TraceEvent)) (*RecommendResponse, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	strategy, budgetPages, err := req.validate(s.adv)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.adv.requestContext(ctx, req)
	defer cancel()
	rec, err := s.prep.RecommendObserved(ctx, core.SearchKind(strategy), budgetPages,
		core.Observe{Trace: req.IncludeTrace, Events: obs})
	if err != nil {
		return nil, err
	}
	return s.response(rec, strategy, budgetPages, req), nil
}

// response converts a core recommendation into the v1 response DTO.
func (s *Session) response(rec *core.Recommendation, strategy string, budgetPages int64, req RecommendRequest) *RecommendResponse {
	resp := &RecommendResponse{
		APIVersion:     APIVersion,
		Workload:       s.name,
		Strategy:       strategy,
		BudgetPages:    budgetPages,
		TotalPages:     rec.TotalPages,
		QueryBenefit:   rec.QueryBenefit,
		UpdateCost:     rec.UpdateCost,
		NetBenefit:     rec.NetBenefit,
		Degraded:       rec.Degraded,
		DegradedReason: rec.DegradedReason,
		Candidates:     s.Candidates(),
		Pipeline:       rec.Gen,
		Search:         rec.Search,
		Cache:          rec.Cache,
		Kernel:         rec.Kernel,
		Relevance:      rec.Relevance,
		Evaluations:    rec.Cache.Evaluations,
		ElapsedMS:      int64(rec.Elapsed / time.Millisecond),
	}
	if len(rec.Config) > 0 {
		resp.Indexes = make([]Index, 0, len(rec.Config))
	}
	for i, c := range rec.Config {
		resp.Indexes = append(resp.Indexes, Index{
			// Names come from core in Config order, so the DTO can
			// never drift from the DDL text or PerQuery.IndexesUsed.
			Name:       rec.Names[i],
			Collection: c.Collection,
			Pattern:    c.Pattern.String(),
			Type:       c.Type.Short(),
			Pages:      c.Pages(),
			Entries:    c.Def.EstEntries,
			DDL:        rec.DDL[i],
		})
	}
	if len(rec.PerQuery) > 0 {
		resp.PerQuery = make([]QueryCost, 0, len(rec.PerQuery))
	}
	for _, qa := range rec.PerQuery {
		resp.PerQuery = append(resp.PerQuery, QueryCost{
			ID:              qa.ID,
			Text:            qa.Text,
			Weight:          qa.Weight,
			CostNoIndexes:   qa.CostNoIndexes,
			CostRecommended: qa.CostRecommended,
			CostOvertrained: qa.CostOvertrained,
			IndexesUsed:     qa.IndexesUsed,
		})
	}
	if req.IncludeTrace {
		resp.Trace = rec.TraceEvents
	}
	if req.IncludeDAG {
		resp.DAGText = rec.DAG.Render()
	}
	return resp
}
