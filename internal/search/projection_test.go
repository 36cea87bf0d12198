package search_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// costOnly exposes only the CostService half of a backend, hiding its
// RelevantFilter: an engine over it keys and costs each query against
// the query's whole collection-filtered configuration.
type costOnly struct{ whatif.CostService }

// hideRelevance is a cost wrapper that turns relevance projection off
// underneath the engine — the reference the projected engine must agree
// with.
func hideRelevance(svc whatif.CostService) whatif.CostService { return costOnly{svc} }

// advisorPair builds two advisors over one shared small environment:
// one with relevance projection (the default) and one whose backend
// hides its relevance filter (collection-only keying), at the given
// what-if parallelism.
func advisorPair(t testing.TB, workers int) (proj, base *core.Advisor) {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	proj = core.New(env.Cat, opts)
	opts.CostWrapper = hideRelevance
	base = core.New(env.Cat, opts)
	return proj, base
}

// sameRecommendation asserts two recommendations are byte-identical in
// everything the user sees: configuration DDL, benefits, and the
// per-query analysis.
func sameRecommendation(t *testing.T, label string, got, want *core.Recommendation) {
	t.Helper()
	if g, w := strings.Join(got.DDL, "\n"), strings.Join(want.DDL, "\n"); g != w {
		t.Errorf("%s: configurations differ:\n%s\nvs\n%s", label, g, w)
	}
	if got.NetBenefit != want.NetBenefit || got.QueryBenefit != want.QueryBenefit ||
		got.UpdateCost != want.UpdateCost || got.TotalPages != want.TotalPages {
		t.Errorf("%s: benefit summary differs: net %.6f/%.6f query %.6f/%.6f update %.6f/%.6f pages %d/%d",
			label, got.NetBenefit, want.NetBenefit, got.QueryBenefit, want.QueryBenefit,
			got.UpdateCost, want.UpdateCost, got.TotalPages, want.TotalPages)
	}
	if !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
		t.Errorf("%s: per-query analysis differs", label)
	}
}

// TestProjectionDifferentialRealWorkloads is relevance projection's
// safety net on real data: on xmark, tpox, and paper, the projected
// engine and the collection-only reference produce byte-identical
// recommendations (every strategy) and identical per-query evaluations
// on randomized configurations, across worker counts.
func TestProjectionDifferentialRealWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		proj, base := advisorPair(t, workers)
		for name, w := range propertyWorkloads(t) {
			label := name
			projPrep, err := proj.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			basePrep, err := base.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []core.SearchKind{core.SearchGreedyHeuristic, core.SearchTopDown, core.SearchGreedyBasic} {
				p, err := projPrep.RecommendWith(ctx, kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				b, err := basePrep.RecommendWith(ctx, kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameRecommendation(t, label+"/"+string(kind), p, b)
			}
			diffRandomConfigs(t, label, w, proj, base, projPrep.Space().Candidates, workers)
		}
	}
}

// diffRandomConfigs evaluates randomized sub-configurations of the
// candidate space on both engines and requires identical per-query
// costs, plans, and used-index sets.
func diffRandomConfigs(t *testing.T, label string, w *workload.Workload, proj, base *core.Advisor,
	cands []*search.Candidate, workers int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(7*workers + len(label))))
	qs := w.QueryList()
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(6)
		defs := make([]*catalog.IndexDef, 0, n)
		for len(defs) < n {
			defs = append(defs, cands[rng.Intn(len(cands))].Def)
		}
		p, err := proj.CostEngine().EvaluateConfig(ctx, qs, defs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := base.CostEngine().EvaluateConfig(ctx, qs, defs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Queries, b.Queries) {
			t.Fatalf("%s trial %d: projected and reference evaluations differ for %v", label, trial, defs)
		}
	}
}

// TestProjectionDifferentialSynthetic runs the differential at scale
// on the whatif-backed synthetic space against the plain synthetic
// model as reference: identical greedy recommendations and identical
// randomized-configuration evaluations, with the projected engine
// actually sharing atoms across configurations.
func TestProjectionDifferentialSynthetic(t *testing.T) {
	const n, seed = 2000, 7
	ctx := context.Background()
	spProj, engProj := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{})
	plain := search.NewSyntheticSpace(n, seed)

	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := strat.Search(ctx, spProj)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := strat.Search(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	// The engine-backed evaluator reconstructs the model's aggregates
	// from per-query costs, so it matches the plain model up to float
	// summation order — the configuration choice must be identical, the
	// net equal to ~1e-9 relative.
	if configKey(rp) != configKey(rm) {
		t.Errorf("whatif-backed space chose a different configuration than the plain synthetic model")
	}
	if relDiff(rp.Eval.Net, rm.Eval.Net) > 1e-9 {
		t.Errorf("whatif-backed net %.12f != model net %.12f", rp.Eval.Net, rm.Eval.Net)
	}
	if st := engProj.Stats(); st.ProjectedHits == 0 {
		t.Errorf("projection shared no atoms across configurations: %+v", st)
	}

	// Randomized configurations straight at the evaluators.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		sz := 1 + rng.Intn(8)
		cfg := make([]*search.Candidate, 0, sz)
		for len(cfg) < sz {
			cfg = append(cfg, spProj.Candidates[rng.Intn(len(spProj.Candidates))])
		}
		p, err := spProj.Eval.Evaluate(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := plain.Eval.Evaluate(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfg {
			if p.Uses(c) != m.Uses(c) {
				t.Fatalf("trial %d: engine-backed eval says member %s used=%t, model says %t", trial, c.Key(), p.Uses(c), m.Uses(c))
			}
		}
		if relDiff(p.QueryBenefit, m.QueryBenefit) > 1e-9 ||
			relDiff(p.UpdateCost, m.UpdateCost) > 1e-9 ||
			relDiff(p.Net, m.Net) > 1e-9 {
			t.Fatalf("trial %d: engine-backed vs model eval differ: %+v vs %+v", trial, p, m)
		}
	}
}

// relDiff is |a-b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / scale
}

// TestBenefitMatrixSynthetic cross-checks the synthetic space's benefit
// matrix against standalone evaluations: row sum plus private benefit
// equals the standalone QueryBenefit for every candidate, on both the
// plain model and the whatif-engine-backed evaluator.
func TestBenefitMatrixSynthetic(t *testing.T) {
	ctx := context.Background()
	for _, engineBacked := range []bool{false, true} {
		var sp *search.Space
		if engineBacked {
			sp, _ = search.NewSyntheticWhatIfSpace(400, 3, whatif.Options{})
		} else {
			sp = search.NewSyntheticSpace(400, 3)
		}
		m := sp.Benefits
		if len(m.Rows) != len(sp.Candidates) {
			t.Fatalf("matrix has %d rows for %d candidates", len(m.Rows), len(sp.Candidates))
		}
		for ci, c := range sp.Candidates {
			ev, err := sp.Eval.Evaluate(ctx, []*search.Candidate{c})
			if err != nil {
				t.Fatal(err)
			}
			if m.PrivateBenefit(ci) <= 0 {
				t.Fatalf("engineBacked=%v candidate %d: private benefit %v; the model counts every member used because it is positive",
					engineBacked, ci, m.PrivateBenefit(ci))
			}
			if got, want := m.StandaloneBenefit(ci), ev.QueryBenefit; math.Abs(got-want) > 1e-6 {
				t.Fatalf("engineBacked=%v candidate %d: matrix standalone benefit %.6f != evaluated %.6f",
					engineBacked, ci, got, want)
			}
		}
	}
}

// TestBenefitMatrixPaperWorkload cross-checks the advisor-built matrix
// on the paper workload: each row's sum equals the candidate's
// standalone evaluated query benefit, and each entry matches a
// standalone per-query what-if evaluation.
func TestBenefitMatrixPaperWorkload(t *testing.T) {
	ctx := context.Background()
	w := propertyWorkloads(t)["paper"]
	a := testAdvisor(t)
	prep, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	sp := prep.Space()
	m := sp.Benefits
	if m == nil {
		t.Fatal("prepared space carries no benefit matrix")
	}
	if len(m.Rows) != len(sp.Candidates) {
		t.Fatalf("matrix has %d rows for %d candidates", len(m.Rows), len(sp.Candidates))
	}
	if m.NumQueries != len(w.Queries) {
		t.Fatalf("matrix spans %d queries, workload has %d", m.NumQueries, len(w.Queries))
	}
	if m.NonZero() == 0 {
		t.Fatal("benefit matrix is empty on the paper workload")
	}
	qs := w.QueryList()
	populated := 0
	for ci, c := range sp.Candidates {
		ev, err := sp.Eval.Evaluate(ctx, []*search.Candidate{c})
		if err != nil {
			t.Fatal(err)
		}
		var rowSum float64
		for _, e := range m.Rows[ci] {
			rowSum += e.Benefit
		}
		if math.Abs(rowSum-ev.QueryBenefit) > 1e-6 {
			t.Errorf("candidate %d (%s): row sum %.6f != standalone query benefit %.6f",
				ci, c.Key(), rowSum, ev.QueryBenefit)
		}
		// Entries against standalone per-query what-if evaluations.
		res, err := a.CostEngine().EvaluateConfig(ctx, qs, []*catalog.IndexDef{c.Def})
		if err != nil {
			t.Fatal(err)
		}
		cell := make([]float64, m.NumQueries)
		for _, e := range m.Rows[ci] {
			cell[e.Query] = e.Benefit
		}
		for qi, e := range w.Queries {
			want := e.Weight * res.Queries[qi].Benefit()
			if got := cell[qi]; math.Abs(got-want) > 1e-6 {
				t.Errorf("candidate %d query %d: matrix entry %.6f != what-if benefit %.6f", ci, qi, got, want)
			}
		}
		if len(m.Rows[ci]) > 0 {
			populated++
		}
	}
	if populated == 0 {
		t.Fatal("no candidate has a populated benefit row")
	}
}
