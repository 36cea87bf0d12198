package search_test

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/catalog"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/whatif"
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
			m, err := sp.Benefits(ctx)
			if err != nil {
				t.Fatal(err)
			}
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
				for qi, qe := range res.Queries {
					// The engine reports costs, not deltas; the
					// subtraction reintroduces last-bit float error,
					// hence the relative tolerance.
					got := qe.CostNoIndexes - qe.Cost
					want := m.Entry(ci, int32(qi))
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("candidate %d query %d: engine standalone benefit %.9f != matrix entry %.9f",
							ci, qi, got, want)
					}
				}
			}
		})
	}
}
