package whatif

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/querylang"
)

// scriptService fails the first failN calls, then succeeds; optionally
// panics or hangs instead.
type scriptService struct {
	calls   atomic.Int64
	failN   int64
	panicN  int64 // calls ≤ panicN panic
	hang    bool  // block until ctx done
	baseErr error
}

func (s *scriptService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	n := s.calls.Add(1)
	if s.hang {
		<-ctx.Done()
		return QueryEval{}, ctx.Err()
	}
	if n <= s.panicN {
		panic(fmt.Sprintf("scripted panic on call %d", n))
	}
	if n <= s.failN {
		err := s.baseErr
		if err == nil {
			err = fmt.Errorf("scripted failure %d", n)
		}
		return QueryEval{}, err
	}
	return QueryEval{CostNoIndexes: 100, Cost: 90}, nil
}

// fakeClock is a deterministic Now/Sleep pair: Sleep advances the
// clock instantly and records the requested durations.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

func resilientForTest(inner CostService, clk *fakeClock, mutate func(*ResilientOptions)) *ResilientService {
	o := ResilientOptions{
		MaxRetries:       3,
		RetryBase:        time.Millisecond,
		RetryMax:         16 * time.Millisecond,
		Seed:             42,
		FailureThreshold: 3,
		OpenFor:          time.Second,
		Now:              clk.Now,
		Sleep:            clk.Sleep,
	}
	if mutate != nil {
		mutate(&o)
	}
	return NewResilientService(inner, o)
}

func testQuery() *querylang.Query {
	return &querylang.Query{ID: "Q1", Collection: "c", Text: "/a/b"}
}

func TestResilientRetriesTransientFailures(t *testing.T) {
	inner := &scriptService{failN: 2}
	clk := &fakeClock{}
	svc := resilientForTest(inner, clk, nil)
	ev, err := svc.EvaluateQuery(context.Background(), testQuery(), nil)
	if err != nil {
		t.Fatalf("want success after retries, got %v", err)
	}
	if ev.Cost != 90 {
		t.Fatalf("inner result not passed through: %+v", ev)
	}
	if got := inner.calls.Load(); got != 3 {
		t.Fatalf("want 3 attempts (2 failures + success), got %d", got)
	}
	rs := svc.ResilienceCounters()
	if rs.Retries != 2 {
		t.Fatalf("want 2 retries counted, got %+v", rs)
	}
	if st := svc.State(); st != BreakerClosed {
		t.Fatalf("breaker should stay closed after recovery, got %v", st)
	}
	// Backoff jitter stays within [base/2, cap] and is deterministic.
	sleeps := clk.Sleeps()
	if len(sleeps) != 2 {
		t.Fatalf("want 2 backoff sleeps, got %v", sleeps)
	}
	for i, d := range sleeps {
		lo := (time.Millisecond << uint(i)) / 2
		hi := 16 * time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
	clk2 := &fakeClock{}
	svc2 := resilientForTest(&scriptService{failN: 2}, clk2, nil)
	if _, err := svc2.EvaluateQuery(context.Background(), testQuery(), nil); err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(sleeps), fmt.Sprint(clk2.Sleeps()); a != b {
		t.Fatalf("same seed must replay the same backoff schedule: %s vs %s", a, b)
	}
}

func TestResilientBreakerLifecycle(t *testing.T) {
	inner := &scriptService{failN: 1 << 30}
	clk := &fakeClock{}
	svc := resilientForTest(inner, clk, func(o *ResilientOptions) { o.MaxRetries = -1 })
	ctx := context.Background()

	// Two failures stay below the threshold and are plain errors.
	for i := 0; i < 2; i++ {
		if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d: want plain failure, got %v", i, err)
		}
	}
	// The third failure trips the breaker, and the error already says so.
	_, err := svc.EvaluateQuery(ctx, testQuery(), nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("tripping failure must wrap ErrCircuitOpen, got %v", err)
	}
	if st := svc.State(); st != BreakerOpen {
		t.Fatalf("want open, got %v", st)
	}
	// While open, calls are rejected without touching the backend.
	before := inner.calls.Load()
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want fast rejection, got %v", err)
	}
	if inner.calls.Load() != before {
		t.Fatal("open breaker must not call the backend")
	}
	rs := svc.ResilienceCounters()
	if rs.BreakerTrips != 1 || rs.BreakerRejects == 0 {
		t.Fatalf("want 1 trip and >0 rejects, got %+v", rs)
	}

	// After the cool-down a probe is admitted; its failure re-opens.
	clk.Advance(2 * time.Second)
	if st := svc.State(); st != BreakerHalfOpen {
		t.Fatalf("want half-open after cool-down, got %v", st)
	}
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe must re-open with ErrCircuitOpen, got %v", err)
	}
	if st := svc.State(); st != BreakerOpen {
		t.Fatalf("want re-opened, got %v", st)
	}

	// Backend heals; the next probe closes the breaker.
	inner.failN = 0
	inner.calls.Store(0)
	clk.Advance(2 * time.Second)
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); err != nil {
		t.Fatalf("healed probe should succeed, got %v", err)
	}
	if st := svc.State(); st != BreakerClosed {
		t.Fatalf("want closed after successful probe, got %v", st)
	}
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); err != nil {
		t.Fatalf("closed breaker should pass calls, got %v", err)
	}
}

func TestResilientCallTimeout(t *testing.T) {
	inner := &scriptService{hang: true}
	svc := NewResilientService(inner, ResilientOptions{
		CallTimeout: 5 * time.Millisecond,
		MaxRetries:  1,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	})
	_, err := svc.EvaluateQuery(context.Background(), testQuery(), nil)
	if err == nil {
		t.Fatal("want timeout failure, got success")
	}
	rs := svc.ResilienceCounters()
	if rs.CallTimeouts != 2 {
		t.Fatalf("want both attempts counted as call timeouts, got %+v", rs)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("want 2 attempts, got %d", got)
	}
}

func TestResilientParentCancellationIsNotABackendFailure(t *testing.T) {
	inner := &scriptService{hang: true}
	clk := &fakeClock{}
	svc := resilientForTest(inner, clk, func(o *ResilientOptions) { o.FailureThreshold = 1 })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := svc.EvaluateQuery(ctx, testQuery(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want the caller's cancellation back, got %v", err)
	}
	if st := svc.State(); st != BreakerClosed {
		t.Fatalf("caller cancellation must not trip the breaker, got %v", st)
	}
	rs := svc.ResilienceCounters()
	if rs.Retries != 0 || rs.BreakerTrips != 0 {
		t.Fatalf("caller cancellation must not retry or trip, got %+v", rs)
	}
}

func TestResilientRecoversPanicsWithoutRetry(t *testing.T) {
	inner := &scriptService{panicN: 1 << 30}
	clk := &fakeClock{}
	svc := resilientForTest(inner, clk, nil)
	_, err := svc.EvaluateQuery(context.Background(), testQuery(), nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError must carry the recovery stack")
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("panics must not be retried, got %d attempts", got)
	}
	if rs := svc.ResilienceCounters(); rs.PanicsRecovered != 1 {
		t.Fatalf("want 1 recovered panic, got %+v", rs)
	}
}

func TestResilientRelevancePassthrough(t *testing.T) {
	// An inner service without RelevanceService yields a nil predicate…
	plain := resilientForTest(&scriptService{}, &fakeClock{}, nil)
	if f := plain.RelevantFilter(testQuery()); f != nil {
		t.Fatal("want nil predicate for a non-relevance inner service")
	}
	// …and a relevance-aware inner service is delegated to.
	fs := &fakeRelevanceService{}
	rs := resilientForTest(fs, &fakeClock{}, nil)
	if f := rs.RelevantFilter(testQuery()); f == nil || !f(nil) {
		t.Fatal("want the inner service's predicate delegated through")
	}
}

type fakeRelevanceService struct{ scriptService }

func (f *fakeRelevanceService) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	return func(*catalog.IndexDef) bool { return true }
}

// TestResilienceCountersChargeCallTally checks the middleware charges
// its counters to the tally on the call's context, next to the engine's
// own counts, and to no other call's.
func TestResilienceCountersChargeCallTally(t *testing.T) {
	inner := &scriptService{failN: 2}
	clk := &fakeClock{}
	svc := resilientForTest(inner, clk, nil)
	eng := NewEngine(svc, Options{Workers: 2})
	q := testQuery()
	ctx, tally := WithTally(context.Background())
	if _, err := eng.EvaluateConfig(ctx, []*querylang.Query{q}, nil); err != nil {
		t.Fatal(err)
	}
	if rs := svc.ResilienceCounters(); rs.Retries != 2 {
		t.Fatalf("middleware lifetime retries %d, want 2", rs.Retries)
	}
	if got := tally.Stats(); got.Resilience.Retries != 2 || got.Evaluations != 1 {
		t.Fatalf("the call's tally must carry its retries and evaluation, got %+v", got)
	}
	if _, err := eng.EvaluateConfig(context.Background(), []*querylang.Query{q}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tally.Stats(); got.Resilience.Retries != 2 || got.Hits != 0 {
		t.Fatalf("a call on another context must not charge the tally, got %+v", got)
	}
}

// TestEngineRecoversBackendPanic checks a panicking CostService
// surfaces as a typed PanicError from the engine, not a dead process.
func TestEngineRecoversBackendPanic(t *testing.T) {
	inner := &scriptService{panicN: 1 << 30}
	eng := NewEngine(inner, Options{Workers: 2})
	_, err := eng.EvaluateConfig(context.Background(), []*querylang.Query{testQuery()}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError out of the engine, got %v", err)
	}
	if st := eng.Stats(); st.Resilience.PanicsRecovered != 1 {
		t.Fatalf("want the engine to count its recovered panic, got %+v", st.Resilience)
	}
}
