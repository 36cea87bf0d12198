package main

import (
	"context"
	"reflect"
	"testing"

	"repro/advisor"
)

func TestColdWorkloadIsAPureFunctionOfTheSeed(t *testing.T) {
	for i := 0; i < 4; i++ {
		a, b := coldWorkloadText(7, i), coldWorkloadText(7, i)
		if a != b {
			t.Fatalf("op %d: same seed gave different workloads", i)
		}
		if a == coldWorkloadText(8, i) {
			t.Errorf("op %d: seeds 7 and 8 gave the same workload", i)
		}
		w, err := advisor.ParseWorkload("cold", a)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(w.Queries) != 30 {
			t.Errorf("op %d: %d queries, want 30", i, len(w.Queries))
		}
		if wantUpdates := 2 * (i % 2); len(w.Updates) != wantUpdates {
			t.Errorf("op %d: %d updates, want %d", i, len(w.Updates), wantUpdates)
		}
	}
	if coldWorkloadText(7, 0) == coldWorkloadText(7, 2) {
		t.Error("ops 0 and 2 share a workload; every op must be never-seen")
	}
}

func TestSweepOrderIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := sweepOrder(3, 5, 3), sweepOrder(3, 5, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and op gave different orders")
	}
	if len(a) != 60 {
		t.Fatalf("%d requests, want 60", len(a))
	}
	seen := map[sweepRequest]bool{}
	for _, rq := range a {
		seen[rq] = true
	}
	if len(seen) != 60 {
		t.Errorf("order repeats requests: %d distinct", len(seen))
	}
	if reflect.DeepEqual(a, sweepOrder(4, 5, 3)) {
		t.Error("seeds 3 and 4 gave the same order")
	}
	if mix(3, 9) != mix(3, 9) || mix(3, 9) == mix(4, 9) || mix(3, 9) == mix(3, 10) {
		t.Error("op seeds must be a pure function of run seed and op index")
	}
}

// TestHeldOutSeedRunsClean runs a few ops of every workload on a seed no
// tuning run used and requires fail_ratio 0.
func TestHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Medium catalog")
	}
	const heldOut = 90210
	ctx := context.Background()
	for _, c := range []struct {
		name string
		ops  int
	}{{"serve-cold", 6}, {"warm-sweep", 3}, {"synth-10k", 2}} {
		t.Run(c.name, func(t *testing.T) {
			r, err := newRunner(c.name, heldOut, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.setup(ctx); err != nil {
				t.Fatal(err)
			}
			defer r.teardown()
			var tl tally
			for i := 0; i < c.ops; i++ {
				out := r.op(ctx, i, i%2 == 0)
				tl.record(out.fail)
				if out.fail != "" {
					t.Errorf("op %d: %s", i, out.fail)
				}
			}
			if tl.ratio() != 0 {
				t.Errorf("fail_ratio %v, want 0", tl.ratio())
			}
		})
	}
}
