package search_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/search"
	"repro/internal/whatif"
)

// outageEval wraps a real evaluator and simulates a cost-backend outage:
// after failAfter successful evaluations, every further Evaluate fails
// with an error wrapping whatif.ErrCircuitOpen — exactly what the
// resilience middleware surfaces once its breaker opens.
type outageEval struct {
	inner     search.Evaluator
	failAfter int64
	calls     atomic.Int64
	fired     atomic.Bool
}

func (o *outageEval) Evaluate(ctx context.Context, cfg []*search.Candidate) (*search.Eval, error) {
	if o.calls.Add(1) > o.failAfter {
		o.fired.Store(true)
		return nil, fmt.Errorf("atom Q1: %w", whatif.ErrCircuitOpen)
	}
	return o.inner.Evaluate(ctx, cfg)
}

func (o *outageEval) Workers() int { return o.inner.Workers() }

// degradedSpace is the paper workload's prepared space with the cost
// backend cut off after failAfter evaluations.
func degradedSpace(t *testing.T, failAfter int64) *search.Space {
	t.Helper()
	a := testAdvisor(t)
	w := propertyWorkloads(t)["paper"]
	prep, err := a.Prepare(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	sp := prep.Space().WithBudget(0)
	sp.Eval = &outageEval{inner: sp.Eval, failAfter: failAfter}
	return sp
}

// TestStrategiesDegradeOnOpenBreaker pins graceful degradation: when
// the costing circuit breaker opens mid-search, every strategy returns
// its best-so-far configuration flagged Degraded with a terminal
// "degraded" trace event, instead of failing.
func TestStrategiesDegradeOnOpenBreaker(t *testing.T) {
	for _, name := range search.Names() {
		if name == "race" {
			continue // raced below, over a shared outage budget
		}
		for _, failAfter := range []int64{0, 1, 25} {
			t.Run(fmt.Sprintf("%s/failAfter=%d", name, failAfter), func(t *testing.T) {
				strat, err := search.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				sp := degradedSpace(t, failAfter)
				res, err := strat.Search(context.Background(), sp)
				if err != nil {
					t.Fatalf("search failed during outage: %v", err)
				}
				if !sp.Eval.(*outageEval).fired.Load() {
					// The strategy needed fewer evaluations than the
					// outage budget and finished healthy; nothing to
					// degrade.
					if res.Degraded {
						t.Fatal("degraded without any failed evaluation")
					}
					return
				}
				if !res.Degraded || !res.Stats.Degraded {
					t.Fatalf("Degraded=%v Stats.Degraded=%v, want both true", res.Degraded, res.Stats.Degraded)
				}
				last := res.Trace[len(res.Trace)-1]
				if last.Action != search.ActionDegraded {
					t.Errorf("last trace event is %q, want %q", last.Action, search.ActionDegraded)
				}
				// The best-so-far claim must be priced: a non-zero net
				// requires a configuration it was measured on.
				if res.Eval.Net != 0 && len(res.Config) == 0 {
					t.Errorf("degraded result claims net %.1f with an empty configuration", res.Eval.Net)
				}
			})
		}
	}
}

// degradedMember is a registered test strategy that always returns a
// degraded empty result, standing in for a member cut off by an open
// breaker while other members finished from cache.
type degradedMember struct{}

func (degradedMember) Name() string { return "test-degraded" }

func (degradedMember) Search(ctx context.Context, sp *search.Space) (*search.Result, error) {
	return &search.Result{
		Strategy: "test-degraded",
		Eval:     &search.Eval{},
		Degraded: true,
		Stats:    search.Stats{Strategy: "test-degraded", Degraded: true},
	}, nil
}

// TestRaceDegradedTiers pins the portfolio's winner tiers: a fully
// evaluated member always beats a degraded one regardless of nets, and
// only when every member degraded is the race result itself degraded.
func TestRaceDegradedTiers(t *testing.T) {
	race, err := search.Lookup("race")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("complete member beats degraded member", func(t *testing.T) {
		search.Register(degradedMember{})
		defer search.Unregister("test-degraded")
		sp := degradedSpace(t, 1<<40) // healthy backend
		res, err := race.Search(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatal("race degraded although complete members finished")
		}
		if res.Stats.Winner == "test-degraded" {
			t.Fatal("degraded member won over fully evaluated members")
		}
		found := false
		for _, m := range res.Members {
			if m.Strategy == "test-degraded" && m.Degraded {
				found = true
			}
		}
		if !found {
			t.Error("degraded member missing from Members")
		}
	})

	t.Run("all members degraded degrades the race", func(t *testing.T) {
		// The outage hits before any member's first evaluation, so every
		// member degrades immediately.
		sp := degradedSpace(t, 0)
		res, err := race.Search(context.Background(), sp)
		if err != nil {
			t.Fatalf("race failed during outage: %v", err)
		}
		if !res.Degraded || !res.Stats.Degraded {
			t.Fatalf("Degraded=%v Stats.Degraded=%v, want both true", res.Degraded, res.Stats.Degraded)
		}
	})
}
