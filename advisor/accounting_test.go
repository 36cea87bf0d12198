package advisor_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
)

// TestFaultInjectionAccountsPerRequest runs six recommends concurrently
// on one session whose costing backend injects seeded transient errors
// behind the resilience middleware, and checks that the retries the
// responses report sum to the middleware's own count: each request is
// charged the retries made on its behalf, none of its neighbours'.
func TestFaultInjectionAccountsPerRequest(t *testing.T) {
	env, workloads := testWorkloads(t)
	adv, err := advisor.New(catalog.New(env.Store),
		advisor.WithResilience(advisor.ResilienceOptions{
			RetryBase:        100 * time.Microsecond,
			RetryMax:         time.Millisecond,
			MaxRetries:       12,
			FailureThreshold: 1000,
		}),
		advisor.WithFaultInjection("seed=7,error=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := adv.Open(ctx, workloads["xmark"])
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := adv.Resilience()
	budgets := []int64{40, 80, 160, 320, 640, 1280}
	resps := make([]*advisor.RecommendResponse, len(budgets))
	errs := make([]error, len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = sess.Recommend(ctx, advisor.RecommendRequest{Strategy: "greedy-heuristic", BudgetPages: b})
		}()
	}
	wg.Wait()
	_, after, _ := adv.Resilience()

	var retries int64
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("budget %d: %v", budgets[i], errs[i])
		}
		retries += resp.Cache.Resilience.Retries
	}
	want := after.Retries - before.Retries
	if want == 0 {
		t.Fatal("no retries during the concurrent recommends; the fault schedule never fired")
	}
	if retries != want {
		t.Errorf("responses report %d retries, the middleware made %d", retries, want)
	}
}
