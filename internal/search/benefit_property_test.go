package search_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestBenefitMatrixMatchesStandaloneWhatIf is the benefit-matrix
// fidelity property the lp strategy leans on: every populated
// (candidate, query) cell of Space.Benefits equals the benefit a real
// standalone what-if evaluation reports for that candidate on that
// query, and the modular Private/Update columns reproduce the
// aggregate standalone evaluation exactly. The sweep runs the
// engine-backed synthetic space across worker counts — none of which
// may change a single entry.
func TestBenefitMatrixMatchesStandaloneWhatIf(t *testing.T) {
	const n, seed = 800, 13
	ctx := context.Background()
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sp, eng := search.NewSyntheticWhatIfSpace(n, seed, whatif.Options{Workers: workers})
			m := sp.Benefits
			if len(m.Rows) != len(sp.Candidates) {
				t.Fatalf("matrix has %d rows for %d candidates", len(m.Rows), len(sp.Candidates))
			}

			// The matrix's query indices address the shared-query
			// universe S0..S{NumQueries-1}; bind the engine to the
			// same universe to read per-query standalone costs.
			qs := make([]*querylang.Query, m.NumQueries)
			for i := range qs {
				qs[i] = &querylang.Query{
					ID:         "S" + strconv.Itoa(i),
					Collection: "syn",
					Text:       "synthetic shared query " + strconv.Itoa(i),
				}
			}
			bound := eng.Bind(qs)

			for ci, c := range sp.Candidates {
				// Aggregate: one standalone what-if evaluation must
				// reproduce the matrix's candidate-level columns.
				ev, err := sp.Eval.Evaluate(ctx, []*search.Candidate{c})
				if err != nil {
					t.Fatal(err)
				}
				wantQB := 0.0
				for _, e := range m.Rows[ci] {
					wantQB += e.Benefit
				}
				wantQB += m.PrivateBenefit(ci)
				if math.Abs(ev.QueryBenefit-wantQB) > 1e-9*(1+math.Abs(wantQB)) {
					t.Fatalf("candidate %d: standalone query benefit %.9f != matrix row sum + private %.9f",
						ci, ev.QueryBenefit, wantQB)
				}
				if math.Abs(ev.UpdateCost-m.UpdateCost(ci)) > 1e-9*(1+math.Abs(ev.UpdateCost)) {
					t.Fatalf("candidate %d: standalone update cost %.9f != matrix update %.9f",
						ci, ev.UpdateCost, m.UpdateCost(ci))
				}
			}

			// Entry granularity on a deterministic sample: the
			// engine's per-query standalone cost delta equals the
			// matrix cell exactly. Sampling every 7th candidate keeps
			// the sweep fast without hiding a systematic mismatch.
			for ci := 0; ci < len(sp.Candidates); ci += 7 {
				res, err := bound.EvaluateConfig(ctx, []*catalog.IndexDef{sp.Candidates[ci].Def})
				if err != nil {
					t.Fatal(err)
				}
				cell := make([]float64, m.NumQueries)
				for _, e := range m.Rows[ci] {
					cell[e.Query] = e.Benefit
				}
				for qi, qe := range res.Queries {
					// The engine reports costs, not deltas; the
					// subtraction reintroduces last-bit float error,
					// hence the relative tolerance.
					got := qe.CostNoIndexes - qe.Cost
					want := cell[qi]
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("candidate %d query %d: engine standalone benefit %.9f != matrix entry %.9f",
							ci, qi, got, want)
					}
				}
			}
		})
	}
}

// coldUpdateWorkload is the cold-with-updates golden's workload for a
// seed (internal/core): 20 XMark and 10 TPoX queries plus an XMark
// insert/delete pair weighing a fifth of the query weight.
func coldUpdateWorkload(seed int64) *workload.Workload {
	w := &workload.Workload{Name: fmt.Sprintf("cold-updates-%d", seed)}
	for _, src := range []*workload.Workload{
		datagen.XMarkWorkload(20, seed),
		datagen.TPoXWorkload(10, seed, 25),
	} {
		for _, e := range src.Queries {
			w.MustAddQuery(e.Weight, e.Query.Text)
		}
	}
	datagen.XMarkUpdates(w, w.TotalQueryWeight()/5, seed)
	return w
}

// TestStandaloneFromMatrixIsExact pins the benefit model as the one
// standalone pricing: for every candidate, the evaluation strategies
// derive from Space.Benefits equals the evaluator's own evaluation of
// the candidate alone, bit for bit in QueryBenefit, UpdateCost and Net,
// and in plan usage wherever the net is positive. It runs on xmark,
// TPoX and paper, on the cold workloads with inserts and deletes, and
// on the 1k synthetic spaces with and without a what-if engine.
func TestStandaloneFromMatrixIsExact(t *testing.T) {
	ctx := context.Background()
	a := testAdvisor(t)
	workloads := propertyWorkloads(t)
	for seed := int64(1); seed <= 6; seed++ {
		workloads[fmt.Sprintf("cold-updates-%d", seed)] = coldUpdateWorkload(seed)
	}
	spaces := map[string]*search.Space{"synthetic-1k": search.NewSyntheticSpace(1000, 42)}
	spaces["synthetic-whatif-1k"], _ = search.NewSyntheticWhatIfSpace(1000, 42, whatif.Options{})
	for name, w := range workloads {
		prep, err := a.Prepare(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spaces[name] = prep.Space()
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, sp := range spaces {
		alone, err := search.StandaloneEvals(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		positive, charged := 0, 0
		for _, c := range sp.Candidates {
			got := &alone[c.ID]
			want, err := sp.Eval.Evaluate(ctx, []*search.Candidate{c})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !same(got.QueryBenefit, want.QueryBenefit) || !same(got.UpdateCost, want.UpdateCost) || !same(got.Net, want.Net) {
				t.Errorf("%s %s: from the matrix qb=%v uc=%v net=%v, evaluated qb=%v uc=%v net=%v", name, c.Key(),
					got.QueryBenefit, got.UpdateCost, got.Net, want.QueryBenefit, want.UpdateCost, want.Net)
			}
			if want.Net > 0 {
				positive++
				if got.Uses(c) != want.Uses(c) {
					t.Errorf("%s %s: used=%t from the matrix, %t evaluated", name, c.Key(), got.Uses(c), want.Uses(c))
				}
			}
			if want.UpdateCost > 0 {
				charged++
			}
		}
		if w := workloads[name]; positive == 0 || ((w == nil || len(w.Updates) > 0) && charged == 0) {
			t.Errorf("%s: %d candidates net positive, %d charged for updates; the comparison checks too little", name, positive, charged)
		}
	}
}
