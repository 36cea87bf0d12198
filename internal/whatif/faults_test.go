package whatif

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/querylang"
)

func TestFaultScheduleDeterminism(t *testing.T) {
	run := func() (errs []int64, ev QueryEval) {
		svc := NewFaultService(&scriptService{}, FaultSchedule{Seed: 7, ErrorRate: 0.3})
		for i := 0; i < 50; i++ {
			e, err := svc.EvaluateQuery(context.Background(), testQuery(), nil)
			if err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("want ErrInjected, got %v", err)
				}
				errs = append(errs, svc.Calls())
				continue
			}
			ev = e
		}
		return errs, ev
	}
	errs1, ev := run()
	errs2, _ := run()
	if len(errs1) == 0 || len(errs1) == 50 {
		t.Fatalf("30%% error rate over 50 calls should fail some and pass some, got %d failures", len(errs1))
	}
	if a, b := fmt.Sprint(errs1), fmt.Sprint(errs2); a != b {
		t.Fatalf("same seed must fail the same calls: %s vs %s", a, b)
	}
	if ev.Cost != 90 {
		t.Fatalf("clean calls must pass the inner result through, got %+v", ev)
	}
}

func TestFaultPanicFailAfterAndStuck(t *testing.T) {
	svc := NewFaultService(&scriptService{}, FaultSchedule{Seed: 1, PanicOn: 2, FailAfter: 3})
	ctx := context.Background()
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); err != nil {
		t.Fatalf("call 1 should be clean, got %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("call 2 must panic")
			}
		}()
		svc.EvaluateQuery(ctx, testQuery(), nil)
	}()
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); err != nil {
		t.Fatalf("call 3 should be clean, got %v", err)
	}
	if _, err := svc.EvaluateQuery(ctx, testQuery(), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("call 4 is past failafter, want ErrInjected, got %v", err)
	}

	// A stuck call blocks until its context dies.
	stuck := NewFaultService(&scriptService{}, FaultSchedule{Seed: 1, StuckRate: 1})
	sctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, err := stuck.EvaluateQuery(sctx, testQuery(), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck call must return the context error, got %v", err)
	}
}

func TestFaultSetScheduleSwapsAtomically(t *testing.T) {
	svc := NewFaultService(&scriptService{}, FaultSchedule{Seed: 1, ErrorRate: 1})
	if _, err := svc.EvaluateQuery(context.Background(), testQuery(), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	svc.SetSchedule(FaultSchedule{Seed: 1})
	if _, err := svc.EvaluateQuery(context.Background(), testQuery(), nil); err != nil {
		t.Fatalf("faults disabled, want success, got %v", err)
	}
	if svc.Injected() != 1 {
		t.Fatalf("want exactly 1 injected fault, got %d", svc.Injected())
	}
}

func TestParseFaultSpecRoundTrip(t *testing.T) {
	spec := "seed=7,error=0.1,latency=0.05:3ms,stuck=0.01,panic=25,failafter=200"
	f, err := ParseFaultSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSchedule{Seed: 7, ErrorRate: 0.1, LatencyRate: 0.05, Latency: 3 * time.Millisecond,
		StuckRate: 0.01, PanicOn: 25, FailAfter: 200}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	back, err := ParseFaultSpec(f.String())
	if err != nil || back != f {
		t.Fatalf("String/Parse round trip drifted: %+v vs %+v (%v)", back, f, err)
	}
	for _, bad := range []string{"", "error=2", "latency=0.1", "panic=0", "bogus=1", "error"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

// TestFaultUnderResilientUnderEngine is the composition the chaos and
// soak tests rely on: Engine → ResilientService → FaultService →
// backend. Retries absorb the transient faults below the engine, so
// the engine sees only clean results — and the relevance predicate
// still flows through both wrappers.
func TestFaultUnderResilientUnderEngine(t *testing.T) {
	faults := NewFaultService(&fakeRelevanceService{}, FaultSchedule{Seed: 3, ErrorRate: 0.3})
	clk := &fakeClock{}
	res := resilientForTest(faults, clk, func(o *ResilientOptions) { o.MaxRetries = 10 })
	eng := NewEngine(res, Options{Workers: 4})
	var queries []*querylang.Query
	for i := 0; i < 20; i++ {
		queries = append(queries, &querylang.Query{ID: fmt.Sprintf("Q%d", i), Collection: "c", Text: fmt.Sprintf("/a/b%d", i)})
	}
	ev, err := eng.EvaluateConfig(context.Background(), queries, nil)
	if err != nil {
		t.Fatalf("retries should absorb 30%% transient faults, got %v", err)
	}
	if len(ev.Queries) != 20 || ev.Queries[0].Cost != 90 {
		t.Fatalf("unexpected results: %+v", ev.Queries[:1])
	}
	if res.ResilienceCounters().Retries == 0 {
		t.Fatal("expected some retries under 30% faults")
	}
	if faults.Injected() == 0 {
		t.Fatal("expected injected faults")
	}
}
