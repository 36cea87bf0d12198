package whatif

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/querylang"
)

// ErrCircuitOpen reports that the resilient middleware's circuit
// breaker rejected (or cut short) a CostService call because the
// backend is failing. Callers match it with errors.Is; the search
// layer treats it as the signal to degrade to a best-so-far result
// instead of failing the whole recommendation.
var ErrCircuitOpen = errors.New("whatif: circuit breaker open")

// PanicError is a panic recovered at a resilience boundary (the
// ResilientService call wrapper, the Engine's worker goroutines, or a
// race portfolio member), converted into an ordinary error so one
// misbehaving cost backend or strategy cannot kill the process. It
// carries the recovered value and the goroutine stack at recovery.
type PanicError struct {
	// Op names the boundary that recovered the panic.
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// NewPanicError captures the current goroutine stack around a
// recovered panic value.
func NewPanicError(op string, value any) *PanicError {
	return &PanicError{Op: op, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: recovered panic: %v", e.Op, e.Value)
}

// ResilienceStats are the counters of a ResilientService, plus any
// panics the Engine itself recovered. Both charge them to the tallies
// on each call's context, so a request's Stats carry its own.
type ResilienceStats struct {
	// Retries counts re-attempted CostService calls (not first tries).
	Retries int64 `json:"retries,omitempty"`
	// BreakerTrips counts transitions to the open state.
	BreakerTrips int64 `json:"breakerTrips,omitempty"`
	// BreakerRejects counts calls refused outright while open.
	BreakerRejects int64 `json:"breakerRejects,omitempty"`
	// CallTimeouts counts attempts cut off by the per-call timeout
	// while the caller's own context was still live.
	CallTimeouts int64 `json:"callTimeouts,omitempty"`
	// PanicsRecovered counts panics converted into PanicError.
	PanicsRecovered int64 `json:"panicsRecovered,omitempty"`
}

// BreakerState is the circuit breaker's state.
type BreakerState int32

const (
	// BreakerClosed: calls flow normally; consecutive failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are rejected with ErrCircuitOpen until the
	// open interval elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe calls are admitted;
	// enough successes close the breaker, any failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ResilientOptions tune the ResilientService. The zero value is valid:
// every field falls back to the default noted on it.
type ResilientOptions struct {
	// CallTimeout bounds each individual CostService attempt; 0
	// disables the per-attempt timeout (the caller's context still
	// applies).
	CallTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried
	// (so MaxRetries+1 attempts total); negative means 0. Default 3.
	MaxRetries int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt up to RetryMax. Default 5ms.
	RetryBase time.Duration
	// RetryMax caps the backoff. Default 250ms.
	RetryMax time.Duration
	// Seed drives the deterministic backoff jitter: the same seed and
	// call sequence reproduce the same waits exactly.
	Seed uint64
	// FailureThreshold is how many consecutive failures open the
	// breaker. Default 5.
	FailureThreshold int
	// OpenFor is how long the breaker stays open before admitting
	// half-open probes. Default 2s.
	OpenFor time.Duration
	// HalfOpenProbes is how many concurrent probe calls the half-open
	// state admits, and how many must succeed to close. Default 1.
	HalfOpenProbes int
	// Now and Sleep are the clock, injectable for tests. Defaults:
	// time.Now and a timer-based context-respecting sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// WithDefaults returns the options with every unset knob replaced by
// its production default — the exact configuration NewResilientService
// runs with, so callers (the xiad startup log) can report effective
// values.
func (o ResilientOptions) WithDefaults() ResilientOptions {
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 2 * time.Second
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = 1
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	return o
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ResilientService is CostService middleware that isolates the caller
// from a misbehaving backend: each call gets a per-attempt timeout,
// bounded retries with exponential backoff and deterministic jitter,
// and panic containment; consecutive failures open a circuit breaker
// that fails fast (ErrCircuitOpen) until a cool-down admits half-open
// probes again. It composes transparently with RelevanceService, so
// the Engine's relevance projection keeps working through it. Safe for
// concurrent use.
//
// Layer it *under* the Engine (Engine → ResilientService → backend):
// that way transient faults the retries absorb are invisible to the
// engine's batch evaluation, and cached atoms keep serving even while
// the breaker is open.
type ResilientService struct {
	inner CostService
	rel   RelevanceService // inner as RelevanceService, or nil
	opts  ResilientOptions

	seq atomic.Uint64 // call sequence, salts the jitter

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	openedAt  time.Time
	probes    int // admitted, unresolved half-open probes
	probeWins int // successful probes this half-open cycle

	// total is the middleware's lifetime tally; each call also charges
	// the tallies on its context.
	total Tally
}

// NewResilientService wraps inner with timeouts, retries, and a
// circuit breaker. See ResilientOptions for defaults.
func NewResilientService(inner CostService, o ResilientOptions) *ResilientService {
	s := &ResilientService{inner: inner, opts: o.WithDefaults()}
	if rs, ok := inner.(RelevanceService); ok {
		s.rel = rs
	}
	return s
}

// RelevantFilter implements RelevanceService by delegating to the
// wrapped service; when the inner service does not implement it, the
// returned predicate is nil, which the Engine treats as
// collection-only projection — exactly the behavior it would get from
// the inner service directly.
func (s *ResilientService) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	if s.rel == nil {
		return nil
	}
	return s.rel.RelevantFilter(q)
}

// State returns the breaker's current state, advancing open→half-open
// when the cool-down has elapsed so health probes see the same state a
// call would.
func (s *ResilientService) State() BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == BreakerOpen && s.opts.Now().Sub(s.openedAt) >= s.opts.OpenFor {
		return BreakerHalfOpen
	}
	return s.state
}

// ResilienceCounters returns the middleware's lifetime counters.
func (s *ResilientService) ResilienceCounters() ResilienceStats {
	return s.total.Stats().Resilience
}

// admit decides whether a call may proceed. probe reports that the
// call is a half-open probe whose outcome resolves the breaker.
func (s *ResilientService) admit() (probe bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if s.opts.Now().Sub(s.openedAt) < s.opts.OpenFor {
			return false, fmt.Errorf("%w (cooling down)", ErrCircuitOpen)
		}
		s.state = BreakerHalfOpen
		s.probes = 0
		s.probeWins = 0
		fallthrough
	case BreakerHalfOpen:
		if s.probes < s.opts.HalfOpenProbes {
			s.probes++
			return true, nil
		}
		return false, fmt.Errorf("%w (half-open, probes saturated)", ErrCircuitOpen)
	}
	return false, nil
}

// record feeds one call outcome into the breaker and reports whether
// this outcome tripped it open.
func (s *ResilientService) record(success, probe bool) (tripped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if probe {
		s.probes--
		if success {
			s.probeWins++
			if s.probeWins >= s.opts.HalfOpenProbes {
				s.state = BreakerClosed
				s.failures = 0
			}
			return false
		}
		s.state = BreakerOpen
		s.openedAt = s.opts.Now()
		return true
	}
	if success {
		s.failures = 0
		return false
	}
	s.failures++
	if s.state == BreakerClosed && s.failures >= s.opts.FailureThreshold {
		s.state = BreakerOpen
		s.openedAt = s.opts.Now()
		s.failures = 0
		return true
	}
	return false
}

// attempt runs one inner call under the per-attempt timeout, with
// panic containment, counting recovered panics and call timeouts in d.
// timedOut reports that the attempt's own deadline (not the caller's)
// cut it off.
func (s *ResilientService) attempt(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef, d *ResilienceStats) (ev QueryEval, timedOut bool, err error) {
	actx := ctx
	var cancel context.CancelFunc
	if s.opts.CallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.opts.CallTimeout)
		defer cancel()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				d.PanicsRecovered++
				err = NewPanicError("whatif: resilient CostService call", r)
			}
		}()
		ev, err = s.inner.EvaluateQuery(actx, q, config)
	}()
	if err != nil && ctx.Err() == nil && actx.Err() != nil {
		d.CallTimeouts++
		return QueryEval{}, true, fmt.Errorf("whatif: call timed out after %s: %w", s.opts.CallTimeout, err)
	}
	return ev, false, err
}

// EvaluateQuery implements CostService with timeouts, retries, and the
// breaker. Errors that trip the breaker are wrapped so that
// errors.Is(err, ErrCircuitOpen) holds from the very first failing
// call of an outage — the degradation path does not have to wait for a
// second request to observe the open state. The call's counters are
// charged once, on return.
func (s *ResilientService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	var d Stats
	defer func() { charge(ctx, &s.total, &d) }()
	seq := s.seq.Add(1)
	for attempt := 0; ; attempt++ {
		probe, err := s.admit()
		if err != nil {
			d.Resilience.BreakerRejects++
			return QueryEval{}, err
		}
		if err := ctx.Err(); err != nil {
			// The caller is gone; resolve the probe slot without
			// judging the backend.
			if probe {
				s.mu.Lock()
				s.probes--
				s.mu.Unlock()
			}
			return QueryEval{}, err
		}
		ev, timedOut, err := s.attempt(ctx, q, config, &d.Resilience)
		if err == nil {
			s.record(true, probe)
			return ev, nil
		}
		if ctx.Err() != nil && !timedOut {
			// The caller's own context ended; not the backend's fault.
			if probe {
				s.mu.Lock()
				s.probes--
				s.mu.Unlock()
			}
			return QueryEval{}, err
		}
		tripped := s.record(false, probe)
		if tripped {
			d.Resilience.BreakerTrips++
			return QueryEval{}, fmt.Errorf("%w (tripped by: %w)", ErrCircuitOpen, err)
		}
		var pe *PanicError
		if errors.As(err, &pe) || errors.Is(err, ErrCircuitOpen) || attempt >= s.opts.MaxRetries {
			return QueryEval{}, err
		}
		d.Resilience.Retries++
		if serr := s.opts.Sleep(ctx, s.backoff(seq, attempt)); serr != nil {
			return QueryEval{}, serr
		}
	}
}

// backoff is the wait before retrying the (attempt+1)-th time:
// exponential from RetryBase capped at RetryMax, scaled into
// [50%, 100%] by a deterministic jitter derived from the seed, the
// call sequence number, and the attempt — the same schedule replays
// identically for the same seed.
func (s *ResilientService) backoff(seq uint64, attempt int) time.Duration {
	d := s.opts.RetryBase << uint(attempt)
	if d <= 0 || d > s.opts.RetryMax {
		d = s.opts.RetryMax
	}
	u := splitmix64(s.opts.Seed ^ (seq*0x9e3779b97f4a7c15 + uint64(attempt) + 1))
	frac := float64(u>>11) / float64(1<<53) // [0, 1)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// splitmix64 is the SplitMix64 mixer: a full-period bijection whose
// output is well distributed for any input, used for cheap
// deterministic per-call randomness without shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
