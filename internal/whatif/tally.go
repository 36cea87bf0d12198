package whatif

import (
	"context"
	"sync"
)

// Tally is a request-scoped set of what-if counters carried in a
// context.Context. The Engine and the ResilientService charge the work
// they do for a call to every tally on the call context's chain, once
// per call, so a tally counts exactly the work done on its own behalf
// even while other requests share the engine. A tally nested under
// another (WithTally on a context that already carries one) charges its
// parent too: the outer count is the sum of the nested ones plus the
// work charged to it directly. Safe for concurrent use.
type Tally struct {
	parent *Tally
	mu     sync.Mutex
	s      Stats
}

type tallyKey struct{}

// WithTally returns a child of ctx carrying a new tally, nested under
// the tally ctx already carries, if any.
func WithTally(ctx context.Context) (context.Context, *Tally) {
	t := &Tally{parent: tallyFrom(ctx)}
	return context.WithValue(ctx, tallyKey{}, t), t
}

func tallyFrom(ctx context.Context) *Tally {
	t, _ := ctx.Value(tallyKey{}).(*Tally)
	return t
}

// Stats reads the tally's counts.
func (t *Tally) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// add charges d to t and to every ancestor of t; a nil t is a no-op.
func (t *Tally) add(d *Stats) {
	for ; t != nil; t = t.parent {
		t.mu.Lock()
		t.s.add(d)
		t.mu.Unlock()
	}
}

// charge adds one call's counts to the component's lifetime tally and
// to every tally on the call context's chain.
func charge(ctx context.Context, lifetime *Tally, d *Stats) {
	if *d == (Stats{}) {
		return
	}
	lifetime.add(d)
	tallyFrom(ctx).add(d)
}

// add sums d into s.
func (s *Stats) add(d *Stats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Evaluations += d.Evaluations
	s.ProjectedHits += d.ProjectedHits
	s.RelevantDefs += d.RelevantDefs
	r := &s.Resilience
	r.Retries += d.Resilience.Retries
	r.BreakerTrips += d.Resilience.BreakerTrips
	r.BreakerRejects += d.Resilience.BreakerRejects
	r.CallTimeouts += d.Resilience.CallTimeouts
	r.PanicsRecovered += d.Resilience.PanicsRecovered
}
