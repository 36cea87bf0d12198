package search_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/search"
)

// outcome renders what a search returns, apart from wall time: the
// configuration, its evaluation, the stats and the trace. Race member
// notes carry each member's wall time, so only their presence counts.
func outcome(t *testing.T, res *search.Result) string {
	t.Helper()
	var zeroElapsed func(s search.Stats) search.Stats
	zeroElapsed = func(s search.Stats) search.Stats {
		s.Elapsed = 0
		members := make([]search.Stats, len(s.Members))
		for i, m := range s.Members {
			members[i] = zeroElapsed(m)
		}
		s.Members = members
		return s
	}
	trace := make(search.Trace, len(res.Trace))
	for i, e := range res.Trace {
		if e.Action == search.ActionMember && e.Note != "" {
			e.Note = "(timed)"
		}
		trace[i] = e
	}
	b, err := json.Marshal(struct {
		Config   string
		Pages    int64
		Eval     search.Eval
		Degraded bool
		Stats    search.Stats
		Trace    search.Trace
	}{configKey(res), res.Pages, search.Eval{QueryBenefit: res.Eval.QueryBenefit, UpdateCost: res.Eval.UpdateCost, Net: res.Eval.Net},
		res.Degraded, zeroElapsed(res.Stats), trace})
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

// TestSearchModelMatchesPerSearchOracle pins the space's search model,
// built once by NewSpace and shared by every WithBudget view, against
// the tables each strategy used to build per search: the tables
// themselves (CheckModel, with lp's budgeted relaxation
// reflect.DeepEqual to lpProblem's), and every strategy's result,
// stats and trace over them, which must equal a run over a model built
// afresh for that one search. The shared runs go concurrently, race
// included, on views of one space, so under the race detector they
// also show the model is only read. It covers xmark, TPoX, paper and
// the 1k synthetic space at several budgets, with and without
// interaction awareness (without it greedy-heuristic adds candidates
// strictly in the density order).
func TestSearchModelMatchesPerSearchOracle(t *testing.T) {
	ctx := context.Background()
	a := testAdvisor(t)
	spaces := map[string]*search.Space{"synthetic-1k": search.NewSyntheticSpace(1000, 42)}
	for name, w := range propertyWorkloads(t) {
		prep, err := a.Prepare(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spaces[name] = prep.Space()
	}
	for name, sp := range spaces {
		total := search.PagesOf(sp.Candidates)
		budgets := []int64{0, sp.BudgetPages, total / 16, total / 4}
		type run struct {
			strategy string
			budget   int64
			aware    bool
		}
		var runs []run
		for _, strategy := range search.Names() {
			for _, b := range budgets {
				runs = append(runs, run{strategy, b, true}, run{strategy, b, false})
			}
		}
		view := func(r run) *search.Space {
			v := sp.WithBudget(r.budget)
			v.InteractionAware = r.aware
			return v
		}
		for _, b := range budgets {
			if err := search.CheckModel(sp.WithBudget(b)); err != nil {
				t.Fatalf("%s at budget %d: %v", name, b, err)
			}
		}
		// Warm the what-if cache, so the oracle and shared runs count the
		// same cache work whatever order they run in.
		for _, r := range runs {
			strat, err := search.Lookup(r.strategy)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := strat.Search(ctx, view(r)); err != nil {
				t.Fatalf("%s %+v: %v", name, r, err)
			}
		}
		want := make([]string, len(runs))
		for i, r := range runs {
			strat, _ := search.Lookup(r.strategy)
			oracle, err := search.OracleModelView(view(r))
			if err != nil {
				t.Fatal(err)
			}
			res, err := strat.Search(ctx, oracle)
			if err != nil {
				t.Fatalf("%s %+v over the oracle model: %v", name, r, err)
			}
			want[i] = outcome(t, res)
		}
		got := make([]string, len(runs))
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				strat, _ := search.Lookup(r.strategy)
				res, err := strat.Search(ctx, view(r))
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = outcome(t, res)
			}()
		}
		wg.Wait()
		for i, r := range runs {
			what := fmt.Sprintf("%s %+v", name, r)
			if errs[i] != nil {
				t.Errorf("%s: %v", what, errs[i])
			} else if got[i] != want[i] {
				t.Errorf("%s: the shared model's run differs from the oracle's\nshared: %s\noracle: %s", what, got[i], want[i])
			}
		}
	}
}
