package search_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
)

// blockingStrategy parks until its context is cancelled, then returns
// the context error — a stand-in for a member too slow for the
// deadline.
type blockingStrategy struct{}

func (blockingStrategy) Name() string { return "test-blocking" }

func (blockingStrategy) Search(ctx context.Context, sp *search.Space) (*search.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRaceAnytimeDeadline pins the best-so-far contract at a deadline:
// a race whose deadline cuts off a member still returns the best
// configuration among the members that finished, while an explicit
// cancellation, or a deadline no member beat, surfaces as the context
// error. The blocking member guarantees the deadline fires while fast
// members have completed.
func TestRaceAnytimeDeadline(t *testing.T) {
	search.Register(blockingStrategy{})
	defer func() {
		if !search.Unregister("test-blocking") {
			t.Error("test-blocking was not registered")
		}
	}()

	w := propertyWorkloads(t)["paper"]
	a := testAdvisor(t)
	prep, err := a.Prepare(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	race, err := search.Lookup("race")
	if err != nil {
		t.Fatal(err)
	}

	// Reference run: no deadline, members only (exclude the blocking
	// one by racing on a space whose winner we compute serially).
	heuristic, err := prep.RecommendWith(context.Background(), core.SearchGreedyHeuristic, 0)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("anytime returns best finished member", func(t *testing.T) {
		sp := prep.Space().WithBudget(0)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		res, err := race.Search(ctx, sp)
		if err != nil {
			t.Fatalf("race failed at deadline: %v", err)
		}
		if len(res.Members) == 0 {
			t.Fatal("no member finished before the deadline")
		}
		for _, m := range res.Members {
			if m.Strategy == "test-blocking" {
				t.Error("blocking member reported as finished")
			}
		}
		// The real strategies all finished (they are orders of magnitude
		// faster than the deadline), so the winner must be at least as
		// good as the heuristic result.
		if res.Eval.Net < heuristic.NetBenefit {
			t.Errorf("winner net %.3f < heuristic net %.3f", res.Eval.Net, heuristic.NetBenefit)
		}
		pick := res.Trace[len(res.Trace)-1]
		if pick.Action != search.ActionPick {
			t.Fatalf("last trace event is %s, want pick", pick.Action)
		}
		if !strings.Contains(pick.Note, "deadline:") {
			t.Errorf("pick note %q does not mention the deadline", pick.Note)
		}
	})

	t.Run("full recommendation assembles despite the expired deadline", func(t *testing.T) {
		// End-to-end through core: the deadline fires during the race
		// (the blocking member never returns), and the recommendation —
		// including the final and overtrained evaluations that run
		// after the search — must still come back.
		env, err := experiments.BuildEnv(experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		aprep, err := core.New(env.Cat, core.DefaultOptions()).Prepare(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		rec, err := aprep.RecommendWith(ctx, core.SearchRace, 0)
		if err != nil {
			t.Fatalf("recommendation failed at deadline: %v", err)
		}
		if len(rec.Config) == 0 || rec.NetBenefit < heuristic.NetBenefit {
			t.Errorf("recommendation (%d indexes, net %.1f) worse than heuristic member (net %.1f)",
				len(rec.Config), rec.NetBenefit, heuristic.NetBenefit)
		}
		if len(rec.PerQuery) != len(w.Queries) {
			t.Errorf("assembly incomplete: %d per-query rows for %d queries", len(rec.PerQuery), len(w.Queries))
		}
	})

	t.Run("explicit cancellation aborts even with finished members", func(t *testing.T) {
		sp := prep.Space().WithBudget(0)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			// By now the three real members are long done (they take
			// milliseconds); only the blocking member is still parked.
			time.Sleep(300 * time.Millisecond)
			cancel()
		}()
		_, err := race.Search(ctx, sp)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled (a deadline softens, an explicit abort does not)", err)
		}
	})

	t.Run("no finished member surfaces the deadline even in anytime mode", func(t *testing.T) {
		sp := prep.Space().WithBudget(0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // every member sees a dead context immediately
		_, err := race.Search(ctx, sp)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}
