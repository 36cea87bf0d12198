package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/whatif"
)

// TestShimmedAdvisorMatchesUnshimmed pins that the cost shim measures the
// same program: on the xmark, tpox and paper workloads a shimmed advisor
// returns the same indexes, net benefit and evaluation count as an
// unshimmed one, and the shim sees every cost-service call.
func TestShimmedAdvisorMatchesUnshimmed(t *testing.T) {
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, w := range map[string]*advisor.Workload{
		"xmark": env.XMarkWorkload, "tpox": env.TPoXWorkload, "paper": env.PaperWorkload,
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := advisor.New(catalog.New(env.Store))
			if err != nil {
				t.Fatal(err)
			}
			shim := &costShim{}
			shimmed, err := advisor.New(catalog.New(env.Store), advisor.WithCostWrapper(shim.wrap))
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Recommend(ctx, w, advisor.RecommendRequest{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := shimmed.Recommend(ctx, w, advisor.RecommendRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.DDL(), want.DDL()) {
				t.Errorf("indexes differ:\nshimmed: %v\nplain:   %v", got.DDL(), want.DDL())
			}
			if got.NetBenefit != want.NetBenefit || got.Evaluations != want.Evaluations {
				t.Errorf("net %v evaluations %d, want %v and %d",
					got.NetBenefit, got.Evaluations, want.NetBenefit, want.Evaluations)
			}
			if calls, _ := shim.counts(); calls != got.Evaluations {
				t.Errorf("shim counted %d calls, response reports %d evaluations", calls, got.Evaluations)
			}
		})
	}
}

// TestShimWithoutRelevanceChangesTheProgram shows why the shim delegates
// RelevantFilter: a wrapper that hides it turns the engine's relevance
// projection off, and the evaluation count changes.
func TestShimWithoutRelevanceChangesTheProgram(t *testing.T) {
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	hiding, err := advisor.New(catalog.New(env.Store), advisor.WithCostWrapper(func(svc advisor.CostService) advisor.CostService {
		return &costShim{inner: svc}
	}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hiding.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluations == want.Evaluations {
		t.Errorf("hiding RelevantFilter left evaluations at %d; the guard test no longer guards anything", got.Evaluations)
	}
}

func TestTimedEvaluatorKeepsTheBatchPath(t *testing.T) {
	sp, _ := search.NewSyntheticWhatIfSpace(100, 1, whatif.Options{})
	if _, ok := timeEvaluator(sp.Eval, nil, 0, -1).(search.BatchEvaluator); !ok {
		t.Error("wrapping a batch evaluator lost EvaluateBatch")
	}
	plain := struct{ search.Evaluator }{sp.Eval}
	if _, ok := timeEvaluator(plain, nil, 0, -1).(search.BatchEvaluator); ok {
		t.Error("wrapping a plain evaluator must not add EvaluateBatch")
	}
	// The wrapped space chooses what the unwrapped one does.
	strat, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := strat.Search(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sp2, _ := search.NewSyntheticWhatIfSpace(100, 1, whatif.Options{})
	rec := newRecorder()
	sp2.Eval = timeEvaluator(sp2.Eval, rec, 0, -1)
	got, err := strat.Search(context.Background(), sp2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Eval.Net != want.Eval.Net || got.Stats.Evals != want.Stats.Evals {
		t.Errorf("timed search net %v evals %d, want %v and %d", got.Eval.Net, got.Stats.Evals, want.Eval.Net, want.Stats.Evals)
	}
	if len(rec.snapshot()) == 0 {
		t.Error("timed evaluator recorded no spans")
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metric
// names the program reports in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newRunner(w.Name, 1, nil); err != nil {
			t.Error(err)
		}
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("workload %s has no shape", w.Name)
		}
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEndMetrics)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
		if u, ok := perLayerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per_layer %s (%s): program has unit %q", m.Name, m.Unit, u)
		}
	}
	if len(names) != len(perLayerUnits) {
		var missing []string
		for n := range perLayerUnits {
			if !slices.Contains(names, n) {
				missing = append(missing, n)
			}
		}
		sort.Strings(missing)
		t.Errorf("per_layer lacks %v", missing)
	}
}
