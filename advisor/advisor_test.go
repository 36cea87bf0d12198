package advisor_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// testWorkloads returns the three standard workloads over the shared
// small environment.
func testWorkloads(t testing.TB) (*experiments.Env, map[string]*workload.Workload) {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	return env, map[string]*workload.Workload{
		"xmark": env.XMarkWorkload,
		"tpox":  env.TPoXWorkload,
		"paper": env.PaperWorkload,
	}
}

// maskRuntime drops the wall-clock report line, the only
// nondeterministic part of the recommendation screen.
func maskRuntime(report string) string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "advisor runtime:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestFacadeParity pins the facade to the core pipeline: on the
// xmark/tpox/paper workloads, recommendations served through the public
// advisor package carry exactly the core.Advisor output — same DDL,
// same benefits and size, same per-query analysis, same candidate
// space.
func TestFacadeParity(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			coreRec, err := core.New(catalog.New(env.Store), core.DefaultOptions()).Recommend(w)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := advisor.New(catalog.New(env.Store))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := adv.Recommend(ctx, w, advisor.RecommendRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resp.DDL(), coreRec.DDL; !reflect.DeepEqual(got, want) {
				t.Errorf("DDL mismatch:\nfacade: %v\ncore:   %v", got, want)
			}
			if resp.QueryBenefit != coreRec.QueryBenefit || resp.UpdateCost != coreRec.UpdateCost ||
				resp.NetBenefit != coreRec.NetBenefit || resp.TotalPages != coreRec.TotalPages {
				t.Errorf("benefits: facade %v/%v/%v in %d pages, core %v/%v/%v in %d pages",
					resp.QueryBenefit, resp.UpdateCost, resp.NetBenefit, resp.TotalPages,
					coreRec.QueryBenefit, coreRec.UpdateCost, coreRec.NetBenefit, coreRec.TotalPages)
			}
			if len(resp.PerQuery) != len(coreRec.PerQuery) {
				t.Fatalf("facade has %d per-query rows, core %d", len(resp.PerQuery), len(coreRec.PerQuery))
			}
			for i, qa := range coreRec.PerQuery {
				want := advisor.QueryCost{ID: qa.ID, Text: qa.Text, Weight: qa.Weight, CostNoIndexes: qa.CostNoIndexes,
					CostRecommended: qa.CostRecommended, CostOvertrained: qa.CostOvertrained, IndexesUsed: qa.IndexesUsed}
				if got := resp.PerQuery[i]; !reflect.DeepEqual(got, want) {
					t.Errorf("per-query row %d:\nfacade: %+v\ncore:   %+v", i, got, want)
				}
			}
			want := advisor.CandidateSummary{Basics: len(coreRec.Basics), Total: len(coreRec.DAG.Nodes),
				DAGNodes: len(coreRec.DAG.Nodes), DAGEdges: coreRec.DAG.Edges(), DAGRoots: len(coreRec.DAG.Roots)}
			for _, c := range coreRec.Basics {
				want.BasicsPages += c.Pages()
			}
			if resp.Candidates != want {
				t.Errorf("candidates: facade %+v, core %+v", resp.Candidates, want)
			}
		})
	}
}

// TestOptionValidation pins the centralized constructor validation and
// its typed errors.
func TestOptionValidation(t *testing.T) {
	env, _ := testWorkloads(t)
	cases := []struct {
		name   string
		opt    advisor.Option
		option string
	}{
		{"negative budget", advisor.WithBudgetPages(-1), "WithBudgetPages"},
		{"unknown strategy", advisor.WithStrategy("simulated-annealing"), "WithStrategy"},
		{"bad rules", advisor.WithRules("lub,bogus"), "WithRules"},
		{"negative parallelism", advisor.WithParallelism(-2), "WithParallelism"},
		{"negative budget KB", advisor.WithBudgetKB(-1), "WithBudgetKB"},
		{"budget KB overflowing bytes", advisor.WithBudgetKB(1<<53 + 1), "WithBudgetKB"},
		{"negative deadline", advisor.WithDeadline(-1), "WithDeadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := advisor.New(catalog.New(env.Store), tc.opt)
			if err == nil {
				t.Fatal("want validation error, got nil")
			}
			if !errors.Is(err, advisor.ErrInvalidOption) {
				t.Errorf("error %v does not wrap ErrInvalidOption", err)
			}
			var oe *advisor.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %T is not *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Errorf("OptionError.Option = %q, want %q", oe.Option, tc.option)
			}
		})
	}

	// Aliases normalize to canonical names in one place.
	adv, err := advisor.New(catalog.New(env.Store), advisor.WithStrategy("top-down"))
	if err != nil {
		t.Fatal(err)
	}
	if got := adv.Strategy(); got != "topdown" {
		t.Errorf("alias not canonicalized: %q", got)
	}
}

// TestUnlimitedBudgetRequest pins the escape hatch: with a default
// budget configured on the advisor, UnlimitedBudget reaches the
// unconstrained configuration a zero budget can no longer express.
func TestUnlimitedBudgetRequest(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	w := workloads["xmark"]

	free, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, err := free.Recommend(ctx, w, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}

	capped, err := advisor.New(catalog.New(env.Store),
		advisor.WithBudgetPages(unconstrained.TotalPages/2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := capped.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	defaulted, err := sess.Recommend(ctx, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.TotalPages > unconstrained.TotalPages/2 {
		t.Fatalf("default budget not applied: %d pages", defaulted.TotalPages)
	}
	unlimited, err := sess.Recommend(ctx, advisor.RecommendRequest{UnlimitedBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unlimited.DDL(), unconstrained.DDL()) {
		t.Errorf("unlimitedBudget result differs from the unconstrained configuration")
	}
	if unlimited.BudgetPages != 0 {
		t.Errorf("unlimited response reports budget %d", unlimited.BudgetPages)
	}
}

// TestRequestValidation pins per-request validation and its typed
// errors.
func TestRequestValidation(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.Open(ctx, workloads["paper"])
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cases := []struct {
		name  string
		req   advisor.RecommendRequest
		field string
	}{
		{"future api version", advisor.RecommendRequest{APIVersion: "v9"}, "apiVersion"},
		{"unknown strategy", advisor.RecommendRequest{Strategy: "annealing"}, "strategy"},
		{"negative budget", advisor.RecommendRequest{BudgetPages: -5}, "budgetPages"},
		{"conflicting budgets", advisor.RecommendRequest{BudgetPages: 1, BudgetKB: 1}, "budgetKB"},
		{"unlimited conflicts with budget", advisor.RecommendRequest{UnlimitedBudget: true, BudgetKB: 1}, "unlimitedBudget"},
		{"negative timeout", advisor.RecommendRequest{TimeoutMS: -1}, "timeoutMs"},
		// 2^53+1 KB wraps to 1024 bytes when multiplied out; the timeout
		// wraps to a 448µs deadline when converted to a Duration.
		{"budget KB overflowing bytes", advisor.RecommendRequest{BudgetKB: 1<<53 + 1}, "budgetKB"},
		{"timeout overflowing duration", advisor.RecommendRequest{TimeoutMS: 18446744073710}, "timeoutMs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sess.Recommend(ctx, tc.req)
			if !errors.Is(err, advisor.ErrInvalidRequest) {
				t.Fatalf("error %v does not wrap ErrInvalidRequest", err)
			}
			var re *advisor.RequestError
			if !errors.As(err, &re) {
				t.Fatalf("error %T is not *RequestError", err)
			}
			if re.Field != tc.field {
				t.Errorf("RequestError.Field = %q, want %q", re.Field, tc.field)
			}
		})
	}

	if _, err := sess.Recommend(ctx, advisor.RecommendRequest{APIVersion: advisor.APIVersion}); err != nil {
		t.Errorf("explicit current version rejected: %v", err)
	}
	largest := advisor.RecommendRequest{BudgetKB: math.MaxInt64 / 1024, TimeoutMS: math.MaxInt64 / int64(time.Millisecond)}
	if _, err := sess.Recommend(ctx, largest); err != nil {
		t.Errorf("largest representable budget and timeout rejected: %v", err)
	}
	sess.Close()
	if _, err := sess.Recommend(ctx, advisor.RecommendRequest{}); !errors.Is(err, advisor.ErrSessionClosed) {
		t.Errorf("closed session error = %v, want ErrSessionClosed", err)
	}
}

// TestSessionConcurrentRecommends runs many simultaneous strategy/budget
// requests on one session and checks each against its serial twin: the
// warm-cache sharing must never change a result.
func TestSessionConcurrentRecommends(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.Open(ctx, workloads["xmark"])
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	full, err := sess.Recommend(ctx, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []advisor.RecommendRequest
	for _, strategy := range []string{"greedy-basic", "greedy-heuristic", "topdown", "race"} {
		for _, budget := range []int64{0, full.TotalPages / 2} {
			reqs = append(reqs, advisor.RecommendRequest{Strategy: strategy, BudgetPages: budget})
		}
	}
	serial := make([]*advisor.RecommendResponse, len(reqs))
	for i, req := range reqs {
		if serial[i], err = sess.Recommend(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	parallel := make([]*advisor.RecommendResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req advisor.RecommendRequest) {
			defer wg.Done()
			parallel[i], errs[i] = sess.Recommend(ctx, req)
		}(i, req)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d (%s@%d): %v", i, reqs[i].Strategy, reqs[i].BudgetPages, errs[i])
		}
		if got, want := parallel[i].DDL(), serial[i].DDL(); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d (%s@%d): parallel config differs from serial\nparallel: %v\nserial:   %v",
				i, reqs[i].Strategy, reqs[i].BudgetPages, got, want)
		}
		if parallel[i].NetBenefit != serial[i].NetBenefit {
			t.Errorf("request %d: net %.3f != %.3f", i, parallel[i].NetBenefit, serial[i].NetBenefit)
		}
	}
}

// TestRecommendStream pins the stream contract: space first, then every
// trace event, then counters, then the result; sequence numbers
// strictly increase; and the streamed result matches a plain Recommend.
func TestRecommendStream(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.Open(ctx, workloads["paper"])
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	plain, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: "race"})
	if err != nil {
		t.Fatal(err)
	}

	var events []advisor.Event
	for ev := range sess.RecommendStream(ctx, advisor.RecommendRequest{Strategy: "race"}) {
		events = append(events, ev)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].Type != advisor.EventSpace {
		t.Errorf("first event is %s, want space", events[0].Type)
	}
	traces := 0
	var sawCounters, sawResult bool
	var result *advisor.RecommendResponse
	for _, ev := range events[1:] {
		switch ev.Type {
		case advisor.EventTrace:
			if sawCounters || sawResult {
				t.Error("trace event after counters/result")
			}
			if ev.Trace.Strategy == "" {
				t.Error("trace event without strategy attribution")
			}
			traces++
		case advisor.EventCounters:
			sawCounters = true
		case advisor.EventResult:
			sawResult = true
			result = ev.Response
		case advisor.EventError:
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if traces == 0 || !sawCounters || !sawResult {
		t.Fatalf("stream missing phases: %d traces, counters=%v, result=%v", traces, sawCounters, sawResult)
	}
	if events[len(events)-1].Type != advisor.EventResult {
		t.Errorf("last event is %s, want result", events[len(events)-1].Type)
	}
	if !reflect.DeepEqual(result.DDL(), plain.DDL()) {
		t.Errorf("streamed config differs from plain recommend")
	}
	// The streamed trace events match the result's own trace count for
	// the winner plus the losing members' steps — at minimum, every
	// event in the final trace was also streamed.
	if traces < len(result.Search.Members) {
		t.Errorf("fewer streamed traces (%d) than race members (%d)", traces, len(result.Search.Members))
	}
}

// TestEvaluateOnAndMaterialize drives the DTO round trip: a response's
// indexes evaluate and materialize without reaching into internals.
func TestEvaluateOnAndMaterialize(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	w := workloads["paper"]
	cat := catalog.New(env.Store)
	adv, err := advisor.New(cat)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := adv.Recommend(ctx, w, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Indexes) == 0 {
		t.Fatal("no indexes recommended")
	}
	rep := resp.Report()
	for _, want := range []string{"recommendation", "CREATE INDEX", "overtrained", "net:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	noIdx, withIdx, err := adv.EvaluateOn(ctx, w, resp.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	if noIdx <= withIdx {
		t.Errorf("expected benefit: no-index %.1f <= with-config %.1f", noIdx, withIdx)
	}

	// A JSON round trip must not change what materializes: the wire is
	// the API.
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded advisor.RecommendResponse
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	names, err := adv.Materialize(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(resp.Indexes) {
		t.Fatalf("materialized %d of %d indexes", len(names), len(resp.Indexes))
	}
	for i, n := range names {
		if want := fmt.Sprintf("XIA_IDX%d", i+1); n != want {
			t.Errorf("index name %q, want %q", n, want)
		}
		found := false
		for _, def := range cat.Indexes("") {
			if def.Name == n {
				found = true
			}
		}
		if !found {
			t.Errorf("index %s not in catalog", n)
		}
	}
}
