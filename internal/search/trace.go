package search

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/whatif"
)

// Action is the kind of one search step.
type Action string

const (
	// ActionStart opens a search (top-down's initial root
	// configuration).
	ActionStart Action = "start"
	// ActionAdd records a candidate joining the configuration.
	ActionAdd Action = "add"
	// ActionSkip records a candidate rejected this round (over budget,
	// redundant coverage).
	ActionSkip Action = "skip"
	// ActionReclaim records a configuration member dropped because no
	// plan uses it anymore (greedy-heuristic space reclamation).
	ActionReclaim Action = "reclaim"
	// ActionReplace records top-down swapping a victim for its DAG
	// children.
	ActionReplace Action = "replace"
	// ActionDrop records top-down discarding an unused member in its
	// final pass.
	ActionDrop Action = "drop"
	// ActionMember records one portfolio member finishing (race).
	ActionMember Action = "member"
	// ActionPick records the portfolio winner (race).
	ActionPick Action = "pick"
	// ActionTruncated marks the point where a strategy's own trace
	// buffer hit DefaultTraceCap: it is the last event that strategy
	// records, and Stats.Truncated counts the events dropped after it.
	// A race trace can hold events after it, because the race appends
	// its member and pick events to the winner's buffer. Streaming
	// observers still receive every event.
	ActionTruncated Action = "truncated"
	// ActionDegraded records a search falling back to its best-so-far
	// configuration because the what-if backend became unavailable
	// mid-run (circuit breaker open).
	ActionDegraded Action = "degraded"
	// ActionSolve records the lp strategy solving the fractional
	// relaxation: Benefit carries the LP objective, the note the dual
	// bound and pass count.
	ActionSolve Action = "solve"
	// ActionRounded records the lp strategy's rounded configuration
	// priced by the real what-if evaluator: Benefit is the rounded net,
	// the note compares it against the LP objective and bound.
	ActionRounded Action = "rounded"
)

// TraceEvent is one structured search step: which round, what happened,
// to which candidate, and at what benefit/size — plus the cumulative
// what-if cache counts since the search started, so the cost of every
// decision is visible.
type TraceEvent struct {
	// Round is the search round the event belongs to (1-based; 0 for
	// events before the first round).
	Round int `json:"round"`
	// Action is the step kind.
	Action Action `json:"action"`
	// Candidate is the affected candidate's key (collection | pattern |
	// type); empty for configuration-level events.
	Candidate string `json:"candidate,omitempty"`
	// Benefit is the net benefit attached to the step (standalone or
	// configuration net, depending on the action).
	Benefit float64 `json:"benefit,omitempty"`
	// Pages is the configuration size after the step.
	Pages int64 `json:"pages,omitempty"`
	// Covered/Of are the covered basic-pattern counts (greedy
	// redundancy bitmap) when the strategy tracks them.
	Covered int `json:"covered,omitempty"`
	Of      int `json:"of,omitempty"`
	// Note carries strategy-specific detail ("over budget", a member
	// strategy name, ...).
	Note string `json:"note,omitempty"`
	// Strategy names the strategy that emitted the event. Under the
	// race portfolio a single stream interleaves events from every
	// member, and this is how consumers tell them apart.
	Strategy string `json:"strategy,omitempty"`
	// Cache is the what-if work this strategy has caused so far
	// (hits/misses/evaluations), counted by the what-if engine against
	// the strategy's own tally: exact even when other searches share
	// the engine concurrently. A search over a space whose evaluator
	// does not go through a what-if engine reports zeros.
	Cache Counters `json:"cache"`
	// Evals is the cumulative count of configuration evaluations this
	// strategy itself has requested so far, which is what makes the
	// lazy-greedy call reduction observable.
	Evals int64 `json:"evals"`
}

// String renders the event as one text line.
func (e TraceEvent) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "r%02d %-7s", e.Round, e.Action)
	if e.Candidate != "" {
		fmt.Fprintf(&sb, " %s", e.Candidate)
	}
	if e.Benefit != 0 {
		fmt.Fprintf(&sb, " net=%.1f", e.Benefit)
	}
	if e.Pages != 0 {
		fmt.Fprintf(&sb, " pages=%d", e.Pages)
	}
	if e.Of != 0 {
		fmt.Fprintf(&sb, " covered=%d/%d", e.Covered, e.Of)
	}
	if e.Note != "" {
		fmt.Fprintf(&sb, " (%s)", e.Note)
	}
	fmt.Fprintf(&sb, " [cache %d/%d/%d]", e.Cache.Hits, e.Cache.Misses, e.Cache.Evaluations)
	return sb.String()
}

// Trace is a structured search trace.
type Trace []TraceEvent

// Strings renders the trace as one text line per event.
func (t Trace) Strings() []string {
	out := make([]string, len(t))
	for i, e := range t {
		out[i] = e.String()
	}
	return out
}

// String renders the whole trace as text.
func (t Trace) String() string { return strings.Join(t.Strings(), "\n") }

// JSON renders the trace as an indented JSON array.
func (t Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Stats summarize one strategy run: rounds taken, wall time, and the
// what-if work the search caused. For the race strategy, Winner names
// the member whose configuration won and Members holds the per-member
// stats; each member's Cache counts only that member's work, and the
// race's Cache is their sum.
type Stats struct {
	Strategy string        `json:"strategy"`
	Rounds   int           `json:"rounds"`
	Elapsed  time.Duration `json:"elapsedNs"`
	Cache    Counters      `json:"cache"`
	// Evals counts the configurations this strategy itself priced
	// through Space.Eval (not CostService calls, which Cache.Evaluations
	// counts); for the race portfolio it is the sum over all members.
	Evals int64 `json:"evals"`
	// Truncated counts trace events dropped after the per-strategy
	// buffer hit DefaultTraceCap; 0 when the full trace fit. A race
	// counts its winner's, whose trace its own carries. The count is
	// the same whether or not the trace is kept (Space.NoTrace).
	Truncated int `json:"truncatedEvents,omitempty"`
	// Degraded marks a run that fell back to its best-so-far
	// configuration because the what-if backend became unavailable
	// (circuit breaker open).
	Degraded bool    `json:"degraded,omitempty"`
	Winner   string  `json:"winner,omitempty"`
	Members  []Stats `json:"members,omitempty"`
	// LP summarizes the lp strategy's relaxation solve; nil for every
	// other strategy.
	LP *LPStats `json:"lp,omitempty"`
}

// LPStats summarize one lp-strategy run: the relaxation's objective
// and dual value next to the net benefit the rounded configuration
// actually achieved, plus the solve's shape. The relaxation is a
// single-server surrogate (each query is served by at most one index),
// so Objective and Bound describe the surrogate, not the what-if cost
// model: real plans AND several indexes, and a configuration's real
// net can exceed Bound.
type LPStats struct {
	// Objective is the primal value of the fractional solution.
	Objective float64 `json:"objective"`
	// Bound is the dual value: an upper bound on any feasible
	// configuration's surrogate net benefit. It does not bound the real
	// what-if net.
	Bound float64 `json:"bound"`
	// RoundedNet is the what-if net benefit of the final rounded (and
	// repaired) configuration.
	RoundedNet float64 `json:"roundedNet"`
	// Passes is the number of dual coordinate-descent passes spent.
	Passes int `json:"passes"`
	// Converged reports whether the dual converged before the pass cap.
	Converged bool `json:"converged"`
	// Items, NonZero, and Chains describe the solved relaxation:
	// candidate count, populated benefit cells, and containment-chain
	// side constraints.
	Items   int `json:"items"`
	NonZero int `json:"nonZero"`
	Chains  int `json:"chains"`
	// Support is the number of candidates with positive fractional
	// installation.
	Support int `json:"support"`
	// Pivot names the rounding pivot that won: "support-first" (the
	// fractional solution claimed the budget first) or "density-first"
	// (the greedy order, when a stalled dual left the support
	// misleading).
	Pivot string `json:"pivot,omitempty"`
	// RepairEvals counts the what-if evaluations the bounded repair
	// pass spent after rounding.
	RepairEvals int64 `json:"repairEvals"`
}

// String renders the stats as one line.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "search[%s]: %d rounds, %d configurations priced in %v; cache %d hits / %d misses / %d evaluations",
		s.Strategy, s.Rounds, s.Evals, s.Elapsed.Round(time.Millisecond), s.Cache.Hits, s.Cache.Misses, s.Cache.Evaluations)
	if s.Degraded {
		sb.WriteString("; degraded (cost service unavailable)")
	}
	if s.Winner != "" {
		fmt.Fprintf(&sb, "; winner %s", s.Winner)
	}
	if s.Truncated > 0 {
		fmt.Fprintf(&sb, "; trace truncated (%d events dropped)", s.Truncated)
	}
	return sb.String()
}

// DefaultTraceCap is the per-strategy trace buffer cap: generous
// enough for every real workload while keeping a 50k-candidate
// synthetic run from accumulating hundreds of thousands of events.
const DefaultTraceCap = 4096

// tracer accumulates trace events and run stats for one search. It also
// wraps the space's evaluator in a per-strategy call counter: every
// strategy routes its evaluations through tracer.ev, so Stats.Evals and
// TraceEvent.Evals are exact even when portfolio members share the
// engine concurrently. The what-if engine charges the search's work to
// tally, which newTracer installs in the strategy's context. Under a
// space's NoTrace it buffers nothing but still counts events, so
// Stats.Truncated does not depend on whether the trace is kept.
type tracer struct {
	strategy string
	sp       *Space
	ev       *countingEvaluator
	tally    *whatif.Tally
	start    time.Time
	round    int
	emitted  int
	degraded bool
	lp       *LPStats
	events   Trace
}

// newTracer starts a search's tracer and returns the context the
// strategy must evaluate under: it carries the strategy's tally, nested
// under any tally ctx already carries (the request's, or the race's for
// a portfolio member).
func newTracer(ctx context.Context, strategy string, sp *Space) (context.Context, *tracer) {
	ctx, tally := whatif.WithTally(ctx)
	return ctx, &tracer{strategy: strategy, sp: sp, ev: &countingEvaluator{inner: sp.Eval},
		tally: tally, start: time.Now()}
}

// cache reads the search's what-if counts so far.
func (t *tracer) cache() Counters {
	s := t.tally.Stats()
	return Counters{Hits: s.Hits, Misses: s.Misses, Evaluations: s.Evaluations}
}

// detailed reports whether anyone reads the events: the trace is kept
// or an observer streams them. Strategies format notes only then.
func (t *tracer) detailed() bool { return !t.sp.NoTrace || t.sp.Observer != nil }

// emit counts the event (Stats.Truncated is the count past the trace
// cap); when anyone reads events, it stamps the round, strategy, cache
// counts, and eval count, appends the event to a kept trace (up to the
// cap; the cap'th slot becomes an ActionTruncated marker and later
// events are only counted) and forwards it to the space's streaming
// observer, if any — observers see the full stream regardless of the
// cap.
func (t *tracer) emit(e TraceEvent) {
	t.emitted++
	if !t.detailed() {
		return
	}
	e.Round = t.round
	e.Strategy = t.strategy
	e.Cache = t.cache()
	e.Evals = t.ev.calls.Load()
	if !t.sp.NoTrace {
		switch {
		case t.emitted <= DefaultTraceCap:
			t.events = append(t.events, e)
		case t.emitted == DefaultTraceCap+1:
			t.events = append(t.events, TraceEvent{Round: e.Round, Action: ActionTruncated,
				Strategy: t.strategy, Cache: e.Cache, Evals: e.Evals,
				Note: fmt.Sprintf("trace capped at %d events; stats.truncatedEvents counts the rest", DefaultTraceCap)})
		}
	}
	if t.sp.Observer != nil {
		t.sp.Observer(e)
	}
}

func (t *tracer) stats() Stats {
	return Stats{
		Strategy:  t.strategy,
		Rounds:    t.round,
		Elapsed:   time.Since(t.start),
		Cache:     t.cache(),
		Evals:     t.ev.calls.Load(),
		Truncated: max(0, t.emitted-DefaultTraceCap),
		Degraded:  t.degraded,
		LP:        t.lp,
	}
}
