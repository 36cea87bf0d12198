package search

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/whatif"
)

func init() {
	Register(race{})
}

// race is the portfolio strategy: it runs every other registered
// strategy concurrently over the same space — same candidates, same
// budget, same shared what-if cache, one shared context/deadline — and
// returns the best-net configuration found. Every member ranks by the
// space's one benefit matrix, built with the space before any search,
// and the members share the memoizing what-if engine, so their
// configurations share atoms and the portfolio costs far less than the
// sum of its members run cold.
//
// The winner is deterministic: highest final net benefit, ties broken
// by fewer pages, then by strategy name — so racing in parallel returns
// the same configuration as running each member serially and picking by
// the same rule. Every member runs to completion, so each member result
// is byte-identical to a serial run of that strategy. For large
// candidate spaces, run the lp strategy on its own instead: the race
// waits for its slowest member.
type race struct{}

func (race) Name() string { return "race" }

func (r race) Search(ctx context.Context, sp *Space) (*Result, error) {
	ctx, tr := newTracer(ctx, r.Name(), sp)
	var members []string
	for _, name := range Names() {
		if name != r.Name() {
			members = append(members, name)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("search: race has no member strategies")
	}
	results := make([]*Result, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, name := range members {
		strat, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, name string, strat Strategy) {
			defer wg.Done()
			// A panicking member (a buggy external strategy, a panic
			// escaping a cost backend) is contained to its goroutine and
			// surfaces as a typed member error, not a dead process.
			defer func() {
				if r := recover(); r != nil {
					results[i], errs[i] = nil, whatif.NewPanicError("search: race member "+name, r)
				}
			}()
			results[i], errs[i] = strat.Search(ctx, sp)
		}(i, name, strat)
	}
	wg.Wait()

	// A race cut off by an expired deadline returns the best member
	// that finished in time: the caller asked for an answer by the
	// deadline, so members that completed still compete and only an
	// empty finisher set surfaces the deadline as an error. An explicit
	// cancellation is an abort and always propagates, finished members
	// or not. Any non-deadline member failure is fatal either way — the
	// plain strategies propagate evaluation errors, and the race must
	// stay equivalent to running its members serially.
	finished := 0
	for i := range members {
		if errs[i] == nil {
			finished++
		}
	}
	expired := ctx.Err()
	if expired != nil && (!errors.Is(expired, context.DeadlineExceeded) || finished == 0) {
		return nil, expired
	}
	for i, name := range members {
		if errs[i] != nil {
			if expired != nil && errors.Is(errs[i], expired) {
				continue // this member was cut off by the deadline
			}
			return nil, fmt.Errorf("search: race member %s: %w", name, errs[i])
		}
	}
	var winner, degradedBest *Result
	for i, name := range members {
		res := results[i]
		if res == nil {
			continue
		}
		tr.round++
		member := TraceEvent{Action: ActionMember, Benefit: res.Eval.Net, Pages: res.Pages}
		switch {
		case !tr.detailed():
		case res.Degraded:
			member.Note = fmt.Sprintf("%s: degraded (best-so-far) in %v", name, res.Stats.Elapsed.Round(time.Millisecond))
		default:
			member.Note = fmt.Sprintf("%s: %d indexes in %v", name, len(res.Config), res.Stats.Elapsed.Round(time.Millisecond))
		}
		tr.emit(member)
		// Degraded members compete among themselves as the fallback
		// tier: a fully evaluated result always beats a best-so-far one,
		// whatever the nets claim.
		switch {
		case res.Degraded:
			if better(res, degradedBest) {
				degradedBest = res
			}
		case better(res, winner):
			winner = res
		}
	}
	if winner == nil {
		winner = degradedBest
	}
	if winner == nil {
		// Only a strategy returning neither a result nor an error gets
		// here: every finished member otherwise competes.
		return nil, fmt.Errorf("search: race has no finished member")
	}
	pick := TraceEvent{Action: ActionPick, Benefit: winner.Eval.Net, Pages: winner.Pages}
	if tr.detailed() {
		pick.Note = winner.Strategy
		if expired != nil {
			pick.Note = fmt.Sprintf("%s (deadline: %d/%d members finished)", winner.Strategy, finished, len(members))
		}
		if winner.Degraded {
			pick.Note += " (degraded: every member returned best-so-far)"
		}
	}
	tr.emit(pick)

	stats := tr.stats()
	stats.Winner = winner.Strategy
	stats.Degraded = winner.Degraded
	// The race's trace carries the winner's, so it drops what the
	// winner's dropped.
	stats.Truncated += winner.Stats.Truncated
	// Report the winner's search rounds, not the member count the
	// tracer accumulated: in side-by-side tables the race row's
	// "rounds" must be comparable to the plain strategies'.
	stats.Rounds = winner.Stats.Rounds
	for i := range members {
		if results[i] != nil {
			stats.Members = append(stats.Members, results[i].Stats)
			// The portfolio's what-if spend is the sum of its members'
			// (the race itself evaluates nothing).
			stats.Evals += results[i].Stats.Evals
		}
	}
	// The portfolio's trace is the winner's full step-level trace
	// followed by the per-member summaries and the pick, so `-trace`/
	// `-trace-json` consumers still see how the chosen configuration
	// was built; losers' step traces stay available on Members (a race
	// cut off by its deadline lists only the members that finished).
	// Under NoTrace there is none to build.
	var trace Trace
	if !sp.NoTrace {
		trace = append(append(make(Trace, 0, len(winner.Trace)+len(tr.events)), winner.Trace...), tr.events...)
	}
	memberResults := make([]*Result, 0, len(results))
	for _, res := range results {
		if res != nil {
			memberResults = append(memberResults, res)
		}
	}
	return &Result{
		Strategy: r.Name(),
		Config:   winner.Config,
		Pages:    winner.Pages,
		Eval:     winner.Eval,
		Trace:    trace,
		Stats:    stats,
		Members:  memberResults,
		Degraded: winner.Degraded,
	}, nil
}

// better reports whether a beats b: higher net, then fewer pages, then
// lexicographically smaller strategy name (full determinism).
func better(a, b *Result) bool {
	if b == nil {
		return true
	}
	if a.Eval.Net != b.Eval.Net {
		return a.Eval.Net > b.Eval.Net
	}
	if a.Pages != b.Pages {
		return a.Pages < b.Pages
	}
	return a.Strategy < b.Strategy
}
