package search_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/whatif"
)

// lazyEagerPair runs the greedy-heuristic strategy and the eager
// marginal-scan oracle over the space and returns (strategy, oracle).
func lazyEagerPair(t *testing.T, sp *search.Space) (*search.Result, *search.Result) {
	t.Helper()
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lazy, err := strat.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := search.EagerGreedyOracle(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// requireSameChoice asserts the two results picked the identical
// configuration with identical evaluations.
func requireSameChoice(t *testing.T, label string, lazy, eager *search.Result) {
	t.Helper()
	if configKey(lazy) != configKey(eager) {
		t.Errorf("%s: lazy and eager chose different configurations:\n%s\nvs\n%s",
			label, configKey(lazy), configKey(eager))
	}
	if lazy.Eval.Net != eager.Eval.Net {
		t.Errorf("%s: lazy net %.6f != eager net %.6f", label, lazy.Eval.Net, eager.Eval.Net)
	}
	if lazy.Pages != eager.Pages {
		t.Errorf("%s: lazy pages %d != eager pages %d", label, lazy.Pages, eager.Pages)
	}
}

// TestLazyMatchesEagerOnWorkloads pins the lazy-greedy property on the
// three real workloads: the lazy-greedy heap and the eager prefix-scan
// oracle choose byte-identical configurations, and lazy never spends
// more what-if calls than the oracle.
func TestLazyMatchesEagerOnWorkloads(t *testing.T) {
	ctx := context.Background()
	for name, w := range propertyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			a := testAdvisor(t)
			prep, err := a.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			full, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []int64{1, 2, 4} {
				budget := full.TotalPages / frac
				if budget < 1 {
					budget = 1
				}
				lazy, eager := lazyEagerPair(t, prep.Space().WithBudget(budget))
				requireSameChoice(t, name, lazy, eager)
				if lazy.Stats.Evals > eager.Stats.Evals {
					t.Errorf("%s budget %d: lazy spent %d evals, eager only %d",
						name, budget, lazy.Stats.Evals, eager.Stats.Evals)
				}
			}
		})
	}
}

// TestLazyMatchesEagerOnSyntheticPermuted runs the strategy and the
// oracle over the synthetic space — where interaction is heavy enough
// that the lazy heap actually skips most re-evaluations — and under
// candidate-order permutations: the ranking is content-based, so input
// order must not change the recommendation.
func TestLazyMatchesEagerOnSyntheticPermuted(t *testing.T) {
	sp := search.NewSyntheticSpace(2000, 7)
	lazy, eager := lazyEagerPair(t, sp)
	requireSameChoice(t, "synthetic", lazy, eager)
	if len(lazy.Config) == 0 {
		t.Fatal("synthetic search chose nothing")
	}
	if lazy.Stats.Evals*2 > eager.Stats.Evals {
		t.Errorf("lazy spent %d evals vs eager %d: expected at least a 2x reduction on the synthetic space",
			lazy.Stats.Evals, eager.Stats.Evals)
	}
	want := configKey(lazy)
	for _, seed := range []int64{1, 2, 3} {
		pl, pe := lazyEagerPair(t, permuted(t, sp, seed))
		requireSameChoice(t, "permuted", pl, pe)
		if configKey(pl) != want {
			t.Errorf("seed %d: permuting the candidate order changed the recommendation", seed)
		}
	}
}

// permuted returns a view of sp with its candidates shuffled and its
// benefit model's rows shuffled with them, so that row i stays
// Candidates[i].
func permuted(t *testing.T, sp *search.Space, seed int64) *search.Space {
	t.Helper()
	m := sp.Benefits
	idx := make([]int, len(sp.Candidates))
	for i := range idx {
		idx[i] = i
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	pm := &whatif.BenefitMatrix{NumQueries: m.NumQueries, Rows: make([][]whatif.BenefitEntry, len(idx))}
	if m.Private != nil {
		pm.Private = make([]float64, len(idx))
	}
	if m.Update != nil {
		pm.Update = make([]float64, len(idx))
	}
	perm := sp.WithBudget(sp.BudgetPages)
	perm.Candidates = make([]*search.Candidate, len(idx))
	for i, from := range idx {
		perm.Candidates[i] = sp.Candidates[from]
		pm.Rows[i] = m.Rows[from]
		if pm.Private != nil {
			pm.Private[i] = m.Private[from]
		}
		if pm.Update != nil {
			pm.Update[i] = m.Update[from]
		}
	}
	perm.Benefits = pm
	built, err := search.NewSpace(*perm)
	if err != nil {
		t.Fatal(err)
	}
	return built
}

// TestStandaloneGreedyMatchesOracle pins greedy-heuristic without
// interaction awareness (the E10 ablation) against the oracle's
// standalone branch: the same configuration, net and pages on the three
// real workloads at several budgets and on the 1k synthetic space.
func TestStandaloneGreedyMatchesOracle(t *testing.T) {
	ctx := context.Background()
	blind := func(sp *search.Space) *search.Space {
		v := sp.WithBudget(sp.BudgetPages)
		v.InteractionAware = false
		return v
	}
	for name, w := range propertyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			prep, err := testAdvisor(t).Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			full, err := prep.RecommendWith(ctx, core.SearchGreedyHeuristic, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []int64{1, 2, 4} {
				budget := max(full.TotalPages/frac, 1)
				got, want := lazyEagerPair(t, blind(prep.Space().WithBudget(budget)))
				if len(want.Config) == 0 {
					t.Fatalf("%s budget %d: the oracle chose nothing", name, budget)
				}
				requireSameChoice(t, name, got, want)
			}
		})
	}
	t.Run("synthetic-1k", func(t *testing.T) {
		got, want := lazyEagerPair(t, blind(search.NewSyntheticSpace(1000, 42)))
		if len(want.Config) == 0 {
			t.Fatal("the oracle chose nothing on the synthetic space")
		}
		requireSameChoice(t, "synthetic-1k", got, want)
	})
}

// TestSyntheticSpaceDeterministic pins the generator: same (n, seed)
// means identical candidates and identical search outcomes, both across
// builds and across repeated searches of one space.
func TestSyntheticSpaceDeterministic(t *testing.T) {
	a := search.NewSyntheticSpace(500, 11)
	b := search.NewSyntheticSpace(500, 11)
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Key() != cb.Key() || ca.Pages() != cb.Pages() || ca.Basic != cb.Basic {
			t.Fatalf("candidate %d differs: %v vs %v", i, ca, cb)
		}
	}
	if len(a.DAG.Roots) == 0 || len(a.DAG.Roots) != len(b.DAG.Roots) {
		t.Fatalf("root counts differ: %d vs %d", len(a.DAG.Roots), len(b.DAG.Roots))
	}
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ra, err := strat.Search(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := strat.Search(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := strat.Search(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*search.Result{rb, ra2} {
		if configKey(r) != configKey(ra) || r.Eval.Net != ra.Eval.Net || r.Stats.Evals != ra.Stats.Evals {
			t.Fatalf("synthetic searches diverged: %q/%.3f/%d vs %q/%.3f/%d",
				configKey(r), r.Eval.Net, r.Stats.Evals, configKey(ra), ra.Eval.Net, ra.Stats.Evals)
		}
	}
}

// TestTraceCapTruncates checks the per-strategy trace buffer cap:
// greedy-basic over a 10k-candidate synthetic space emits an add or an
// over-budget skip per positive candidate, far more than
// DefaultTraceCap, so the buffer holds DefaultTraceCap events and ends
// with the truncation marker, Stats.Truncated counts the dropped
// events, and a streaming observer still receives the full stream.
func TestTraceCapTruncates(t *testing.T) {
	sp := search.NewSyntheticSpace(10000, 5)
	strat, err := search.Lookup("greedy-basic")
	if err != nil {
		t.Fatal(err)
	}
	var observed int
	sp.Observer = func(search.TraceEvent) { observed++ }
	res, err := strat.Search(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Truncated == 0 {
		t.Fatalf("greedy-basic over 10k candidates emitted only %d events; expected the %d-event cap to truncate",
			len(res.Trace), search.DefaultTraceCap)
	}
	if len(res.Trace) != search.DefaultTraceCap+1 {
		t.Fatalf("capped trace holds %d events, want %d (cap) + 1 marker", len(res.Trace), search.DefaultTraceCap)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Action != search.ActionTruncated {
		t.Errorf("capped trace ends with %q, want %q", last.Action, search.ActionTruncated)
	}
	if observed != search.DefaultTraceCap+res.Stats.Truncated {
		t.Errorf("observer saw %d events, want the full stream of %d", observed, search.DefaultTraceCap+res.Stats.Truncated)
	}
}
