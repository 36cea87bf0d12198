package advisor_test

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
)

// TestFaultInjectionSoak is the CI fault-injection soak: the same
// request stream runs against a clean advisor and one whose costing
// backend injects a seeded 10% transient error rate plus latency
// spikes behind the resilience middleware. Because every fault
// decision is a pure function of (seed, call number) and retries land
// on fresh call numbers, the middleware absorbs the chaos completely:
// every faulted recommendation must be byte-identical to its clean
// twin, never degraded, with the retry counters proving faults really
// fired. SOAK_ITERS deepens the budget sweep (default 2 keeps the
// default test run fast; CI raises it).
func TestFaultInjectionSoak(t *testing.T) {
	env, workloads := testWorkloads(t)
	iters := 2
	if s := os.Getenv("SOAK_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SOAK_ITERS=%q: want a positive integer", s)
		}
		iters = n
	}

	clean, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := advisor.New(catalog.New(env.Store),
		advisor.WithResilience(advisor.ResilienceOptions{
			RetryBase:        100 * time.Microsecond,
			RetryMax:         time.Millisecond,
			MaxRetries:       12,
			FailureThreshold: 10,
			OpenFor:          50 * time.Millisecond,
		}),
		advisor.WithFaultInjection("seed=7,error=0.1,latency=0.05:200us"))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	strategies := []string{"greedy-basic", "greedy-heuristic", "topdown"}
	for _, name := range []string{"xmark", "tpox", "paper"} {
		w := workloads[name]
		// The unlimited run prices the full candidate set and anchors
		// the budget sweep below.
		base, err := clean.Recommend(ctx, w, advisor.RecommendRequest{UnlimitedBudget: true})
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < iters; iter++ {
			for _, strategy := range strategies {
				req := advisor.RecommendRequest{Strategy: strategy}
				if iter == 0 {
					req.UnlimitedBudget = true
				} else {
					// Fractional budgets drive fresh search paths each
					// iteration instead of replaying warm cache hits.
					req.BudgetPages = base.TotalPages * int64(iter) / int64(iters)
					if req.BudgetPages < 1 {
						req.BudgetPages = 1
					}
				}
				want, err := clean.Recommend(ctx, w, req)
				if err != nil {
					t.Fatalf("%s/%s iter %d: clean: %v", name, strategy, iter, err)
				}
				got, err := faulted.Recommend(ctx, w, req)
				if err != nil {
					t.Fatalf("%s/%s iter %d: faulted: %v", name, strategy, iter, err)
				}
				if got.Degraded {
					t.Fatalf("%s/%s iter %d: faulted run degraded (%s); transient faults must be absorbed by retries",
						name, strategy, iter, got.DegradedReason)
				}
				if g, w := maskRuntime(got.Report()), maskRuntime(want.Report()); g != w {
					t.Errorf("%s/%s iter %d: faulted recommendation differs from clean run:\n--- clean ---\n%s\n--- faulted ---\n%s",
						name, strategy, iter, w, g)
				}
			}
		}
	}

	state, counters, ok := faulted.Resilience()
	if !ok {
		t.Fatal("faulted advisor reports no resilience middleware")
	}
	if state != "closed" {
		t.Errorf("breaker state %q after the soak, want closed", state)
	}
	if counters.Retries == 0 {
		t.Error("soak finished without a single retry; the fault schedule never fired")
	}
	if counters.BreakerTrips != 0 {
		t.Errorf("breaker tripped %d time(s) during a transient-only soak", counters.BreakerTrips)
	}
}
