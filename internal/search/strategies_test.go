package search_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/workload"
)

// propertyWorkloads returns the three standard workloads over one
// shared small environment.
func propertyWorkloads(t testing.TB) map[string]*workload.Workload {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*workload.Workload{
		"xmark": env.XMarkWorkload,
		"tpox":  env.TPoXWorkload,
		"paper": env.PaperWorkload,
	}
}

func testAdvisor(t testing.TB) *core.Advisor {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(env.Cat, core.DefaultOptions())
}

// configKey fingerprints a result's configuration, order-insensitive.
func configKey(res *search.Result) string {
	keys := make([]string, len(res.Config))
	for i, c := range res.Config {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestStrategyProperties is the cross-strategy property suite on the
// xmark/tpox/paper workloads: every strategy's result fits the budget
// and is never worse than the empty configuration, the race portfolio
// is never worse than its best member, and racing in parallel returns
// exactly the per-member results of running each strategy serially.
func TestStrategyProperties(t *testing.T) {
	ctx := context.Background()
	for name, w := range propertyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			a := testAdvisor(t)
			prep, err := a.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			// Budget at half the unconstrained heuristic configuration,
			// so the budget constraint actually binds.
			full, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0)
			if err != nil {
				t.Fatal(err)
			}
			budget := full.TotalPages / 2
			if budget < 1 {
				budget = 1
			}
			sp := prep.Space().WithBudget(budget)

			serial := map[string]*search.Result{}
			bestNet := 0.0
			for _, sn := range search.Names() {
				if sn == "race" {
					continue
				}
				strat, err := search.Lookup(sn)
				if err != nil {
					t.Fatal(err)
				}
				res, err := strat.Search(ctx, sp)
				if err != nil {
					t.Fatalf("%s: %v", sn, err)
				}
				serial[sn] = res

				if res.Pages != search.PagesOf(res.Config) {
					t.Errorf("%s: Pages %d != sum %d", sn, res.Pages, search.PagesOf(res.Config))
				}
				if !sp.Fits(res.Pages) {
					t.Errorf("%s: %d pages exceeds budget %d", sn, res.Pages, budget)
				}
				// Never worse than the empty configuration (net 0).
				if res.Eval.Net < 0 {
					t.Errorf("%s: net %.3f worse than empty configuration", sn, res.Eval.Net)
				}
				if res.Stats.Strategy != sn {
					t.Errorf("%s: stats strategy = %q", sn, res.Stats.Strategy)
				}
				if len(res.Config) > 0 && res.Stats.Rounds == 0 && sn != "topdown" {
					t.Errorf("%s: picked %d indexes in 0 rounds", sn, len(res.Config))
				}
				if res.Eval.Net > bestNet {
					bestNet = res.Eval.Net
				}
			}

			raceStrat, err := search.Lookup("race")
			if err != nil {
				t.Fatal(err)
			}
			race, err := raceStrat.Search(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !sp.Fits(race.Pages) {
				t.Errorf("race: %d pages exceeds budget %d", race.Pages, budget)
			}
			// Race is never worse than its best member.
			if race.Eval.Net+1e-9 < bestNet {
				t.Errorf("race net %.3f < best member %.3f", race.Eval.Net, bestNet)
			}
			if race.Stats.Winner == "" {
				t.Error("race recorded no winner")
			}
			if winner := serial[race.Stats.Winner]; winner == nil {
				t.Errorf("race winner %q is not a member", race.Stats.Winner)
			} else if configKey(race) != configKey(winner) {
				t.Errorf("race config differs from its winner %q", race.Stats.Winner)
			}

			// Parallel racing equals serial per-strategy results.
			if len(race.Members) != len(serial) {
				t.Fatalf("race ran %d members, want %d", len(race.Members), len(serial))
			}
			for _, m := range race.Members {
				if m == nil {
					t.Fatal("race member result missing")
				}
				want := serial[m.Strategy]
				if want == nil {
					t.Fatalf("unexpected race member %q", m.Strategy)
				}
				if configKey(m) != configKey(want) {
					t.Errorf("%s raced in parallel chose a different config than serial:\n%s\nvs\n%s",
						m.Strategy, configKey(m), configKey(want))
				}
				if m.Eval.Net != want.Eval.Net {
					t.Errorf("%s raced net %.6f != serial %.6f", m.Strategy, m.Eval.Net, want.Eval.Net)
				}
			}
		})
	}
}

// TestBudgetSweepSharesTheSpace checks WithBudget reuse: every budget
// point of a sweep searches the same space on the shared what-if cache,
// so repeating a budget point costs zero new evaluations. (Equivalence
// of swept results with fresh full advisor runs is covered by
// core.TestPreparedBudgetSweepMatchesFullRuns.)
func TestBudgetSweepSharesTheSpace(t *testing.T) {
	ctx := context.Background()
	w := propertyWorkloads(t)["xmark"]
	a := testAdvisor(t)
	prep, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	full, err := prep.RecommendWith(ctx, core.SearchTopDown, 0)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := search.Lookup("topdown")
	if err != nil {
		t.Fatal(err)
	}
	sp := prep.Space()
	firstPass := map[int64]string{}
	for _, frac := range []int64{4, 2, 1} {
		budget := full.TotalPages / frac
		res, err := strat.Search(ctx, sp.WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		if res.Pages > budget {
			t.Errorf("budget %d: %d pages", budget, res.Pages)
		}
		firstPass[budget] = configKey(res)
	}
	// Second pass over the same budgets: identical configs, and every
	// configuration the strategy prices is already cached — zero new
	// what-if evaluations proves the sweep actually shares the space.
	for budget, want := range firstPass {
		res, err := strat.Search(ctx, sp.WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		if got := configKey(res); got != want {
			t.Errorf("budget %d: re-sweep changed the config:\n%s\nvs\n%s", budget, got, want)
		}
		if c := res.Stats.Cache; c.Evaluations != 0 || c.Hits == 0 {
			t.Errorf("budget %d: re-sweep counted %d evaluations and %d hits on a warm space, want 0 and > 0",
				budget, c.Evaluations, c.Hits)
		}
	}
}
