package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/advisor"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// overtrainedPages runs the advisor without a budget and returns the
// size of the all-basic-candidates configuration, the sweep baseline.
func overtrainedPages(env *Env, w *workload.Workload) (int64, error) {
	rec, err := env.advisor().Recommend(context.Background(), w, advisor.RecommendRequest{})
	if err != nil {
		return 0, err
	}
	pages := rec.Candidates.BasicsPages
	if pages == 0 {
		pages = 1
	}
	return pages, nil
}

// E3GeneralizationDAG reproduces the candidate DAG view (paper Figure 4):
// the size and shape of the generalized candidate set and how each
// search algorithm traverses it.
func E3GeneralizationDAG(env *Env) (string, error) {
	ctx := context.Background()
	var sb strings.Builder
	rec, err := env.advisor().Recommend(ctx, env.PaperWorkload, advisor.RecommendRequest{IncludeDAG: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "E3: candidate generalization DAG (Figure 4), paper workload\n")
	sb.WriteString(rec.DAGText)
	sb.WriteString("\nsearch traces:\n")

	for _, strategy := range []string{"greedy-heuristic", "topdown"} {
		over, err := overtrainedPages(env, env.XMarkWorkload)
		if err != nil {
			return "", err
		}
		budget := over / 2
		r, err := env.advisor().Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{
			Strategy:     strategy,
			BudgetPages:  budget,
			IncludeTrace: true,
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n[%s] budget=%d pages -> %d indexes, %d pages, net %.1f\n",
			strategy, budget, len(r.Indexes), r.TotalPages, r.NetBenefit)
		for _, ev := range r.Trace {
			fmt.Fprintf(&sb, "  %s\n", ev.String())
		}
	}
	return sb.String(), nil
}

// E4RecommendationAnalysis reproduces the recommendation analysis screen
// (paper Figure 5): per query, the original cost, the cost under the
// recommended configuration, and the cost under the overtrained
// configuration of all basic candidates.
func E4RecommendationAnalysis(env *Env) (string, error) {
	over, err := overtrainedPages(env, env.XMarkWorkload)
	if err != nil {
		return "", err
	}
	budget := over / 2
	rec, err := env.advisor().Recommend(context.Background(), env.XMarkWorkload,
		advisor.RecommendRequest{BudgetPages: budget})
	if err != nil {
		return "", err
	}
	t := newTable(fmt.Sprintf("E4: recommendation analysis (Figure 5) — budget %d pages, recommended %d pages",
		budget, rec.TotalPages),
		"query", "weight", "no-index", "recommended", "overtrained", "indexes")
	for _, qa := range rec.PerQuery {
		t.add(qa.ID, qa.Weight, qa.CostNoIndexes, qa.CostRecommended, qa.CostOvertrained,
			strings.Join(qa.IndexesUsed, ","))
	}
	var recTot, overTot, noTot float64
	for _, qa := range rec.PerQuery {
		noTot += qa.Weight * qa.CostNoIndexes
		recTot += qa.Weight * qa.CostRecommended
		overTot += qa.Weight * qa.CostOvertrained
	}
	return t.String() + fmt.Sprintf(
		"weighted totals: no-index %.1f, recommended %.1f (%.0f%% of max benefit), overtrained %.1f\n",
		noTot, recTot, pct(noTot-recTot, noTot-overTot), overTot), nil
}

func pct(x, of float64) float64 {
	if of == 0 {
		return 100
	}
	return 100 * x / of
}

// E5UnseenWorkload reproduces the demo's "add more queries beyond the
// input workload" analysis: train the advisor on a subset and measure
// benefit on held-out queries, with generalization on vs off — the
// argument for recommending generalized configurations.
func E5UnseenWorkload(env *Env) (string, error) {
	ctx := context.Background()
	full := env.XMarkWorkload
	train, test := full.Split(0.6, 99)
	if len(train.Queries) == 0 || len(test.Queries) == 0 {
		return "", fmt.Errorf("degenerate split")
	}
	t := newTable("E5: benefit on unseen queries (train 60% / test 40%)",
		"search", "generalize", "#idx", "pages", "train benefit", "test benefit")
	for _, strategy := range []string{"greedy-heuristic", "topdown"} {
		for _, gen := range []bool{false, true} {
			rules := "none"
			if gen {
				rules = "" // the paper's default rules
			}
			a := env.advisor(advisor.WithStrategy(strategy), advisor.WithRules(rules))
			rec, err := a.Recommend(ctx, train, advisor.RecommendRequest{})
			if err != nil {
				return "", err
			}
			trainNo, trainWith, err := a.EvaluateOn(ctx, train, rec.Indexes)
			if err != nil {
				return "", err
			}
			testNo, testWith, err := a.EvaluateOn(ctx, test, rec.Indexes)
			if err != nil {
				return "", err
			}
			t.add(strategy, fmt.Sprint(gen), len(rec.Indexes), rec.TotalPages,
				trainNo-trainWith, testNo-testWith)
		}
	}
	return t.String(), nil
}

// E6SearchStrategies compares the three search algorithms across a disk
// budget sweep (paper §2.3): plain greedy [8] vs greedy with redundancy
// heuristics vs top-down, reporting net benefit and how many recommended
// indexes the optimizer never uses (redundant picks). One advisor
// session holds the candidate space; every (budget, strategy) cell then
// re-searches it on the shared what-if cache instead of re-running the
// whole advisor per budget point — visible in the falling evaluations /
// rising hit-rate columns.
func E6SearchStrategies(env *Env) (string, error) {
	over, err := overtrainedPages(env, env.XMarkWorkload)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	sess, err := env.advisor().Open(ctx, env.XMarkWorkload)
	if err != nil {
		return "", err
	}
	defer sess.Close()
	t := newTable("E6: search strategies across disk budgets (fractions of overtrained size; one shared candidate space + what-if cache)",
		"budget%", "search", "#idx", "pages", "net benefit", "#unused", "evaluations", "cache hit%", "kernel hit%")
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		budget := int64(float64(over) * frac)
		if budget < 1 {
			budget = 1
		}
		for _, strategy := range []string{"greedy-basic", "greedy-heuristic", "topdown"} {
			rec, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: strategy, BudgetPages: budget})
			if err != nil {
				return "", err
			}
			used := map[string]bool{}
			for _, qa := range rec.PerQuery {
				for _, n := range qa.IndexesUsed {
					used[n] = true
				}
			}
			unused := len(rec.Indexes) - len(used)
			t.add(int(frac*100), strategy, len(rec.Indexes), rec.TotalPages, rec.NetBenefit, unused,
				rec.Evaluations, 100*rec.Cache.HitRate(), 100*rec.Kernel.HitRate())
		}
	}
	return t.String(), nil
}

// E14StrategyPortfolio compares every registered strategy — including
// the race portfolio — side-by-side at half the overtrained budget on
// the XMark and TPoX workloads. Each workload opens one advisor
// session; the strategies (and the race's concurrent members) share its
// what-if cache, so the portfolio's marginal cost over its most
// expensive member is small, while its net benefit matches the best
// member by construction.
func E14StrategyPortfolio(env *Env) (string, error) {
	ctx := context.Background()
	t := newTable("E14: strategy portfolio — all registered strategies plus the race, half-overtrained budget",
		"workload", "strategy", "#idx", "pages", "net benefit", "rounds", "search ms", "evaluations", "evals", "cache hit%", "proj hits", "winner")
	for _, wl := range []struct {
		name string
		w    *workload.Workload
	}{
		{"xmark", env.XMarkWorkload},
		{"tpox", env.TPoXWorkload},
	} {
		over, err := overtrainedPages(env, wl.w)
		if err != nil {
			return "", err
		}
		sess, err := env.advisor().Open(ctx, wl.w)
		if err != nil {
			return "", err
		}
		defer sess.Close()
		budget := over / 2
		if budget < 1 {
			budget = 1
		}
		for _, name := range advisor.Strategies() {
			rec, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: name, BudgetPages: budget})
			if err != nil {
				return "", err
			}
			t.add(wl.name, name, len(rec.Indexes), rec.TotalPages, rec.NetBenefit, rec.Search.Rounds,
				rec.Search.Elapsed.Milliseconds(), rec.Evaluations, rec.Search.Evals, 100*rec.Cache.HitRate(),
				rec.Cache.ProjectedHits, rec.Search.Winner)
		}
	}
	// Synthetic scale section: the same portfolio question at candidate
	// counts the real workloads cannot reach, where lazy greedy, the lp
	// relaxation and the race actually separate. The pure-model rows
	// price through no CostService (evaluations 0); evals is the count
	// of configurations each strategy priced, from Stats.
	greedy, err := search.Lookup("greedy-heuristic")
	if err != nil {
		return "", err
	}
	for _, n := range []int{1000, 10000} {
		sp := search.NewSyntheticSpace(n, 42)
		wlName := fmt.Sprintf("syn-%dk", n/1000)
		for _, name := range []string{"greedy-heuristic", "lp", "race"} {
			strat, err := search.Lookup(name)
			if err != nil {
				return "", err
			}
			res, err := strat.Search(ctx, sp)
			if err != nil {
				return "", err
			}
			t.add(wlName, name, len(res.Config), res.Pages, res.Eval.Net, res.Stats.Rounds,
				res.Stats.Elapsed.Milliseconds(), int64(0), res.Stats.Evals, 0.0, int64(0), res.Stats.Winner)
		}
		// The same greedy search through the real what-if engine over the
		// synthetic backend — the projected-hit and CostService-call
		// counters at a candidate scale the real workloads cannot reach.
		spw, eng := search.NewSyntheticWhatIfSpace(n, 42, whatif.Options{})
		res, err := greedy.Search(ctx, spw)
		if err != nil {
			return "", err
		}
		st := eng.Stats()
		t.add(wlName, "greedy-whatif", len(res.Config), res.Pages, res.Eval.Net, res.Stats.Rounds,
			res.Stats.Elapsed.Milliseconds(), st.Evaluations, res.Stats.Evals, 100*st.HitRate(), st.ProjectedHits, "")
	}
	return t.String(), nil
}
