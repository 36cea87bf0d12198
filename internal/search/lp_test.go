package search_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/whatif"
)

// lpPair runs the lp strategy and lazy greedy on the same space and
// returns both results.
func lpPair(t *testing.T, sp *search.Space) (lpRes, lazyRes *search.Result) {
	t.Helper()
	ctx := context.Background()
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err = lpS.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	lazyRes, err = lazy.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	return lpRes, lazyRes
}

// checkLPResult asserts the lp strategy's structural contract on one
// result: a budget-feasible configuration never worse than empty, with
// the LP stats block filled in and consistent.
func checkLPResult(t *testing.T, sp *search.Space, res *search.Result) {
	t.Helper()
	if res.Pages != search.PagesOf(res.Config) {
		t.Errorf("pages %d != config sum %d", res.Pages, search.PagesOf(res.Config))
	}
	if !sp.Fits(res.Pages) {
		t.Errorf("configuration of %d pages exceeds budget %d", res.Pages, sp.BudgetPages)
	}
	if res.Eval != nil && res.Eval.Net < 0 {
		t.Errorf("lp returned a configuration worse than empty: net %.3f", res.Eval.Net)
	}
	lp := res.Stats.LP
	if lp == nil {
		t.Fatal("lp run without Stats.LP")
	}
	if lp.Items != len(sp.Candidates) {
		t.Errorf("LP solved %d items, space has %d candidates", lp.Items, len(sp.Candidates))
	}
	if lp.Objective > lp.Bound+1e-6*(1+lp.Bound) {
		t.Errorf("LP objective %.6f exceeds its dual bound %.6f", lp.Objective, lp.Bound)
	}
	if res.Eval != nil && lp.RoundedNet != res.Eval.Net {
		t.Errorf("Stats.LP.RoundedNet %.3f != result net %.3f", lp.RoundedNet, res.Eval.Net)
	}
	if len(res.Config) > 0 && res.Stats.Rounds == 0 {
		t.Error("non-empty configuration with zero rounds")
	}
}

// TestLPParityRealWorkloads pins the quality contract on the three
// real workloads at unlimited, half, and quarter budgets: the rounded
// and repaired lp configuration nets at least 95% of lazy greedy's
// while spending no more what-if evaluations than lazy greedy plus one
// standalone evaluation per candidate, the price of the benefit model
// both rank by.
func TestLPParityRealWorkloads(t *testing.T) {
	ctx := context.Background()
	for name, w := range propertyWorkloads(t) {
		a := testAdvisor(t)
		prep, err := a.Prepare(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp0 := prep.Space()
		lazy, err := search.Lookup("greedy-heuristic")
		if err != nil {
			t.Fatal(err)
		}
		full, err := lazy.Search(ctx, sp0.WithBudget(0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, budget := range []int64{0, full.Pages / 2, full.Pages / 4} {
			sp := sp0.WithBudget(budget)
			lpRes, lazyRes := lpPair(t, sp)
			checkLPResult(t, sp, lpRes)
			if lpRes.Eval.Net < 0.95*lazyRes.Eval.Net {
				t.Errorf("%s budget %d: lp net %.1f below 95%% of lazy net %.1f",
					name, budget, lpRes.Eval.Net, lazyRes.Eval.Net)
			}
			if lpRes.Stats.Evals > lazyRes.Stats.Evals+int64(len(sp.Candidates)) {
				t.Errorf("%s budget %d: lp spent %d evals, lazy only %d plus %d candidates",
					name, budget, lpRes.Stats.Evals, lazyRes.Stats.Evals, len(sp.Candidates))
			}
		}
	}
}

// TestLPSyntheticQualityAndEvals is the scale contract: on the
// synthetic spaces — where the surrogate model is exact, so the dual
// bound genuinely upper-bounds every configuration — lp must match
// lazy greedy's net within 5% while spending at least 5x fewer what-if
// evaluations.
func TestLPSyntheticQualityAndEvals(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		sp := search.NewSyntheticSpace(n, 42)
		lpRes, lazyRes := lpPair(t, sp)
		checkLPResult(t, sp, lpRes)
		if lpRes.Eval.Net < 0.95*lazyRes.Eval.Net {
			t.Errorf("n=%d: lp net %.1f below 95%% of lazy net %.1f", n, lpRes.Eval.Net, lazyRes.Eval.Net)
		}
		if lpRes.Stats.Evals*5 > lazyRes.Stats.Evals {
			t.Errorf("n=%d: lp spent %d evals, not a 5x reduction over lazy's %d",
				n, lpRes.Stats.Evals, lazyRes.Stats.Evals)
		}
		// The surrogate equals the true synthetic net, so the dual bound
		// certifies both strategies' results.
		bound := lpRes.Stats.LP.Bound
		slack := 1e-6 * (1 + bound)
		if lpRes.Eval.Net > bound+slack || lazyRes.Eval.Net > bound+slack {
			t.Errorf("n=%d: dual bound %.1f below an achieved net (lp %.1f, lazy %.1f)",
				n, bound, lpRes.Eval.Net, lazyRes.Eval.Net)
		}
	}
}

// TestLPExactMatchPinned pins an exact agreement: on the n=1000
// seed-42 synthetic space the rounded lp configuration is identical to
// lazy greedy's, member for member.
func TestLPExactMatchPinned(t *testing.T) {
	sp := search.NewSyntheticSpace(1000, 42)
	lpRes, lazyRes := lpPair(t, sp)
	if configKey(lpRes) != configKey(lazyRes) {
		t.Errorf("lp and lazy configurations differ on the pinned space:\nlp:   %s\nlazy: %s",
			configKey(lpRes), configKey(lazyRes))
	}
	if lpRes.Eval.Net != lazyRes.Eval.Net {
		t.Errorf("nets differ on identical configurations: lp %.6f vs lazy %.6f",
			lpRes.Eval.Net, lazyRes.Eval.Net)
	}
}

// TestLPPermutationStable mirrors the lazy/eager permutation test: the
// LP item order, rounding tie-breaks, and repair shortlist are all
// content-keyed, so shuffling the candidate slice must not change the
// recommendation — and repeated runs on one space must agree exactly.
func TestLPPermutationStable(t *testing.T) {
	ctx := context.Background()
	sp := search.NewSyntheticSpace(2000, 7)
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	first, err := lpS.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := lpS.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if configKey(first) != configKey(again) || first.Eval.Net != again.Eval.Net {
		t.Error("repeated lp runs on one space disagree")
	}
	want := configKey(first)
	orig := make(map[int]int, len(sp.Candidates)) // candidate ID -> row
	for i, c := range sp.Candidates {
		orig[c.ID] = i
	}
	for _, seed := range []int64{1, 2, 3} {
		perm := sp.WithBudget(sp.BudgetPages)
		cands := append([]*search.Candidate(nil), sp.Candidates...)
		rand.New(rand.NewSource(seed)).Shuffle(len(cands), func(i, j int) {
			cands[i], cands[j] = cands[j], cands[i]
		})
		perm.Candidates = cands
		// Space.Benefits rows align with Space.Candidates, so a shuffled
		// copy must carry a matching row permutation — reusing the
		// original matrix unchanged would violate the producer contract.
		m := sp.Benefits
		pm := &whatif.BenefitMatrix{
			NumQueries: m.NumQueries,
			Rows:       make([][]whatif.BenefitEntry, len(cands)),
			Private:    make([]float64, len(cands)),
			Update:     make([]float64, len(cands)),
		}
		for i, c := range cands {
			ci := orig[c.ID]
			pm.Rows[i] = m.Rows[ci]
			pm.Private[i] = m.PrivateBenefit(ci)
			pm.Update[i] = m.UpdateCost(ci)
		}
		perm.Benefits = pm
		perm, err := search.NewSpace(*perm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lpS.Search(ctx, perm)
		if err != nil {
			t.Fatal(err)
		}
		if configKey(res) != want {
			t.Errorf("seed %d: permuting the candidate order changed the lp recommendation", seed)
		}
	}
}

// TestLPRequiresBenefits pins the search contract: the benefit model
// is what lp optimizes over, so a space without a benefit matrix is an
// error, not a silent fallback.
func TestLPRequiresBenefits(t *testing.T) {
	sp := search.NewSyntheticSpace(50, 7).WithBudget(0)
	sp.Benefits = nil
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lpS.Search(context.Background(), sp); err == nil || !strings.Contains(err.Error(), "Space.Benefits") {
		t.Errorf("got error %v, want one naming Space.Benefits", err)
	}
}

// roundingNets returns the lp trace's surrogate net of the rounding
// (its last surrogate add event; 0 when the rounding chose nothing) and
// the real what-if net of the rounded configuration (the rounded
// event).
func roundingNets(t *testing.T, res *search.Result) (surrogate, real float64) {
	t.Helper()
	found := false
	for _, e := range res.Trace {
		switch {
		case e.Action == search.ActionAdd && strings.HasPrefix(e.Note, "surrogate net"):
			surrogate = e.Benefit
		case e.Action == search.ActionRounded:
			real, found = e.Benefit, true
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("lp trace has no rounded event")
	}
	return surrogate, real
}

// TestLPRoundedNetCoversSurrogate pins why lp's rounded configuration
// never nets negative before repair. Adding an index never raises a
// query's cost, projection preserves cost, and update cost is modular,
// so the real net of the rounded configuration is at least the
// surrogate net the rounding accepted, which the rounding keeps
// non-negative. On the
// real workloads the real net may exceed the surrogate (plans AND
// several indexes); on the synthetic spaces the surrogate is the cost
// model, so the two agree.
func TestLPRoundedNetCoversSurrogate(t *testing.T) {
	ctx := context.Background()
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	// tol absorbs the different summation orders of the two nets.
	tol := func(v float64) float64 { return 1e-9 * (1 + math.Abs(v)) }
	for name, w := range propertyWorkloads(t) {
		prep, err := testAdvisor(t).Prepare(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		over := search.PagesOf(prep.Basics())
		for _, f := range []float64{0.1, 0.25, 0.5, 1, 2} {
			budget := int64(f * float64(over))
			res, err := lpS.Search(ctx, prep.Space().WithBudget(budget))
			if err != nil {
				t.Fatalf("%s x%g: %v", name, f, err)
			}
			sur, real := roundingNets(t, res)
			if sur < 0 || real < sur-tol(sur) {
				t.Errorf("%s x%g (budget %d): rounded real net %.6f, surrogate net %.6f; want real >= surrogate >= 0",
					name, f, budget, real, sur)
			}
		}
	}
	for _, n := range []int{50, 300, 2000} {
		for seed := uint64(1); seed <= 4; seed++ {
			wsp, _ := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{})
			for kind, sp := range map[string]*search.Space{"plain": search.NewSyntheticSpace(n, seed), "whatif": wsp} {
				res, err := lpS.Search(ctx, sp)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", kind, n, seed, err)
				}
				sur, real := roundingNets(t, res)
				if sur < 0 || math.Abs(real-sur) > tol(sur) {
					t.Errorf("%s n=%d seed=%d: rounded real net %.9f, surrogate net %.9f; want equal and >= 0",
						kind, n, seed, real, sur)
				}
			}
		}
	}
}

// TestLPAliases pins the accepted spellings.
func TestLPAliases(t *testing.T) {
	for _, name := range []string{"lp", "cophy", "relax"} {
		s, err := search.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != "lp" {
			t.Fatalf("%s resolved to %s", name, s.Name())
		}
	}
}

// TestLPShortBenefitMatrix covers a producer bug: a benefit matrix
// shorter than the candidate list — in Rows, Private or
// Update — must make the lp strategy fail with an error naming both
// lengths, not index past the matrix.
func TestLPShortBenefitMatrix(t *testing.T) {
	ctx := context.Background()
	lpS, err := search.Lookup("lp")
	if err != nil {
		t.Fatal(err)
	}
	base := search.NewSyntheticSpace(50, 7)
	n := len(base.Candidates)
	for _, tc := range []struct {
		what    string
		shorten func(m *whatif.BenefitMatrix)
	}{
		{"rows", func(m *whatif.BenefitMatrix) { m.Rows = m.Rows[:10] }},
		{"private benefits", func(m *whatif.BenefitMatrix) { m.Private = m.Private[:10] }},
		{"update costs", func(m *whatif.BenefitMatrix) { m.Update = m.Update[:10] }},
	} {
		sp := base.WithBudget(base.BudgetPages)
		short := *base.Benefits
		tc.shorten(&short)
		sp.Benefits = &short
		_, err := lpS.Search(ctx, sp)
		want := fmt.Sprintf("benefit matrix has 10 %s for %d candidates", tc.what, n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("short %s: got error %v, want one containing %q", tc.what, err, want)
		}
	}
}
