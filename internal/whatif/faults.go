package whatif

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/querylang"
)

// ErrInjected is the error a FaultService returns for an injected
// failure (transient error or fail-after outage). Tests and the soak
// harness match it with errors.Is to distinguish injected faults from
// real ones.
var ErrInjected = errors.New("whatif: injected fault")

// FaultSchedule describes a deterministic fault workload. Every
// decision is a pure function of (Seed, call number), so the same
// schedule replays the exact same faults on the exact same calls —
// retries land on fresh call numbers and usually succeed, which is
// what makes resilient-vs-clean recommendation comparisons meaningful.
type FaultSchedule struct {
	// Seed drives the per-call fault decisions.
	Seed uint64 `json:"seed"`
	// ErrorRate is the probability a call fails with ErrInjected.
	ErrorRate float64 `json:"errorRate,omitempty"`
	// LatencyRate is the probability a call sleeps Latency first.
	LatencyRate float64 `json:"latencyRate,omitempty"`
	// Latency is the injected delay for latency-spike calls.
	Latency time.Duration `json:"latency,omitempty"`
	// StuckRate is the probability a call blocks until its context is
	// cancelled (exercises the per-call timeout).
	StuckRate float64 `json:"stuckRate,omitempty"`
	// PanicOn makes exactly that 1-based call number panic; 0 = never.
	PanicOn int64 `json:"panicOn,omitempty"`
	// FailAfter makes every call after that 1-based number fail with
	// ErrInjected — a hard outage; 0 = never.
	FailAfter int64 `json:"failAfter,omitempty"`
}

// String renders the schedule in ParseFaultSpec syntax.
func (f FaultSchedule) String() string {
	parts := []string{fmt.Sprintf("seed=%d", f.Seed)}
	if f.ErrorRate > 0 {
		parts = append(parts, fmt.Sprintf("error=%g", f.ErrorRate))
	}
	if f.LatencyRate > 0 || f.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%s", f.LatencyRate, f.Latency))
	}
	if f.StuckRate > 0 {
		parts = append(parts, fmt.Sprintf("stuck=%g", f.StuckRate))
	}
	if f.PanicOn > 0 {
		parts = append(parts, fmt.Sprintf("panic=%d", f.PanicOn))
	}
	if f.FailAfter > 0 {
		parts = append(parts, fmt.Sprintf("failafter=%d", f.FailAfter))
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses a comma-separated fault schedule, e.g.
//
//	seed=7,error=0.1,latency=0.05:3ms,stuck=0.01,panic=25,failafter=200
//
// Keys: seed=<uint>, error=<rate>, latency=<rate>:<duration>,
// stuck=<rate>, panic=<call#>, failafter=<call#>. Rates are in [0,1].
func ParseFaultSpec(spec string) (FaultSchedule, error) {
	var f FaultSchedule
	if strings.TrimSpace(spec) == "" {
		return f, fmt.Errorf("whatif: empty fault spec")
	}
	rate := func(key, val string) (float64, error) {
		r, err := strconv.ParseFloat(val, 64)
		if err != nil || r < 0 || r > 1 {
			return 0, fmt.Errorf("whatif: fault spec %s=%q: want a rate in [0,1]", key, val)
		}
		return r, nil
	}
	callNo := func(key, val string) (int64, error) {
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("whatif: fault spec %s=%q: want a positive call number", key, val)
		}
		return n, nil
	}
	for _, item := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return f, fmt.Errorf("whatif: fault spec item %q: want key=value", item)
		}
		var err error
		switch key {
		case "seed":
			f.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("whatif: fault spec seed=%q: %v", val, err)
			}
		case "error":
			if f.ErrorRate, err = rate(key, val); err != nil {
				return f, err
			}
		case "latency":
			rstr, dstr, ok := strings.Cut(val, ":")
			if !ok {
				return f, fmt.Errorf("whatif: fault spec latency=%q: want <rate>:<duration>", val)
			}
			if f.LatencyRate, err = rate(key, rstr); err != nil {
				return f, err
			}
			if f.Latency, err = time.ParseDuration(dstr); err != nil || f.Latency < 0 {
				return f, fmt.Errorf("whatif: fault spec latency=%q: bad duration %q", val, dstr)
			}
		case "stuck":
			if f.StuckRate, err = rate(key, val); err != nil {
				return f, err
			}
		case "panic":
			if f.PanicOn, err = callNo(key, val); err != nil {
				return f, err
			}
		case "failafter":
			if f.FailAfter, err = callNo(key, val); err != nil {
				return f, err
			}
		default:
			keys := []string{"seed", "error", "latency", "stuck", "panic", "failafter"}
			sort.Strings(keys)
			return f, fmt.Errorf("whatif: fault spec key %q: want one of %s", key, strings.Join(keys, ", "))
		}
	}
	return f, nil
}

// FaultService is a CostService that injects scheduled faults in front
// of a real backend: transient errors, latency spikes, stuck calls
// (block until context cancellation), one targeted panic, and a hard
// fail-after outage. Successful calls pass the inner result through
// unchanged, and relevance projection delegates to the inner service,
// so a fault-free schedule is behavior-identical to the bare backend.
// Safe for concurrent use; the schedule can be swapped atomically
// mid-run (SetSchedule) to phase a test through clean → chaos →
// outage → recovery.
type FaultService struct {
	inner CostService
	rel   RelevanceService // inner as RelevanceService, or nil
	sched atomic.Pointer[FaultSchedule]
	calls atomic.Int64
	// injected counts faults actually delivered (errors, spikes,
	// stucks, panics), for test assertions that chaos really happened.
	injected atomic.Int64
}

// NewFaultService wraps inner with the fault schedule.
func NewFaultService(inner CostService, sched FaultSchedule) *FaultService {
	s := &FaultService{inner: inner}
	s.sched.Store(&sched)
	if rs, ok := inner.(RelevanceService); ok {
		s.rel = rs
	}
	return s
}

// SetSchedule atomically replaces the fault schedule; in-flight calls
// finish under the schedule they started with. The call counter keeps
// running, so FailAfter/PanicOn are absolute call numbers.
func (s *FaultService) SetSchedule(sched FaultSchedule) { s.sched.Store(&sched) }

// Calls returns how many EvaluateQuery calls arrived so far.
func (s *FaultService) Calls() int64 { return s.calls.Load() }

// Injected returns how many faults were actually delivered.
func (s *FaultService) Injected() int64 { return s.injected.Load() }

// RelevantFilter implements RelevanceService by delegating to the
// inner service (nil predicate when it has none), keeping the Engine's
// relevance projection intact under fault injection.
func (s *FaultService) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	if s.rel == nil {
		return nil
	}
	return s.rel.RelevantFilter(q)
}

// roll returns a deterministic uniform [0,1) draw for (call n, salt).
func (f *FaultSchedule) roll(n int64, salt uint64) float64 {
	u := splitmix64(f.Seed ^ (uint64(n)*0x9e3779b97f4a7c15 + salt))
	return float64(u>>11) / float64(1<<53)
}

// EvaluateQuery implements CostService, injecting the scheduled fault
// for this call number (if any) before delegating.
func (s *FaultService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	n := s.calls.Add(1)
	f := s.sched.Load()
	if f.PanicOn > 0 && n == f.PanicOn {
		s.injected.Add(1)
		panic(fmt.Sprintf("whatif: injected panic on call %d (schedule %s)", n, f))
	}
	if f.FailAfter > 0 && n > f.FailAfter {
		s.injected.Add(1)
		return QueryEval{}, fmt.Errorf("%w: outage (call %d > failafter %d)", ErrInjected, n, f.FailAfter)
	}
	if f.ErrorRate > 0 && f.roll(n, 1) < f.ErrorRate {
		s.injected.Add(1)
		return QueryEval{}, fmt.Errorf("%w: transient error on call %d", ErrInjected, n)
	}
	if f.StuckRate > 0 && f.roll(n, 2) < f.StuckRate {
		s.injected.Add(1)
		<-ctx.Done()
		return QueryEval{}, ctx.Err()
	}
	if f.LatencyRate > 0 && f.Latency > 0 && f.roll(n, 3) < f.LatencyRate {
		s.injected.Add(1)
		if err := sleepCtx(ctx, f.Latency); err != nil {
			return QueryEval{}, err
		}
	}
	return s.inner.EvaluateQuery(ctx, q, config)
}
