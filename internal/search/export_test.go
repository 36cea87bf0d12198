package search

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
)

// EagerGreedyOracle exposes the eager marginal-scan oracle
// (eager_oracle_test.go) to the external test package.
var EagerGreedyOracle = eagerGreedy

// StandaloneEvals exposes the standalone evaluations, by candidate ID,
// that the space's search model holds and strategies rank by.
func StandaloneEvals(sp *Space) ([]Eval, error) {
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	return md.alone, nil
}

// OracleModelView returns a view of sp whose search model is built
// afresh, for this view alone, the way strategies built their tables
// per search before the space carried them: the standalone table by
// standalone, the order by rankByDensity over the matrix's nets (lp's
// ranking), and the relaxation by lpProblem under the view's budget.
func OracleModelView(sp *Space) (*Space, error) {
	m, err := benefitMatrix(sp)
	if err != nil {
		return nil, err
	}
	alone, err := standalone(sp, sp.Candidates)
	if err != nil {
		return nil, err
	}
	order := rankByDensity(sp.Candidates, func(i int) float64 { return m.StandaloneBenefit(i) - m.UpdateCost(i) })
	md := &model{cands: sp.Candidates, dag: sp.DAG, benefits: m, alone: alone,
		ranked: make([]*Candidate, len(order)), lp: lpProblem(sp, m, order)}
	for k, i := range order {
		md.ranked[k] = sp.Candidates[i]
	}
	v := *sp
	v.model = md
	return &v, nil
}

// CheckModel compares the space's search model with what each strategy
// derived per search before the space carried it: the standalone table
// (greedy-basic, greedy-heuristic, topdown), the density order over the
// standalone table's nets (greedy-basic) and over the matrix's (lp), the
// positive candidates ranked on their own (greedy-heuristic), and the
// relaxation under the view's budget (lp), which must be
// reflect.DeepEqual to lpProblem's.
func CheckModel(sp *Space) error {
	md, err := sp.searchModel()
	if err != nil {
		return err
	}
	m := sp.Benefits
	alone, err := standalone(sp, sp.Candidates)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(md.alone, alone) {
		return errors.New("standalone table differs from standalone's")
	}
	rankedBy := func(cands []*Candidate, order []int) []*Candidate {
		out := make([]*Candidate, len(order))
		for k, i := range order {
			out[k] = cands[i]
		}
		return out
	}
	byTable := rankedBy(sp.Candidates, rankByDensity(sp.Candidates, func(i int) float64 { return alone[sp.Candidates[i].ID].Net }))
	lpOrder := rankByDensity(sp.Candidates, func(i int) float64 { return m.StandaloneBenefit(i) - m.UpdateCost(i) })
	if !slices.Equal(md.ranked, byTable) || !slices.Equal(md.ranked, rankedBy(sp.Candidates, lpOrder)) {
		return errors.New("density order differs from rankByDensity's")
	}
	var positive, filtered []*Candidate
	for _, c := range sp.Candidates {
		if alone[c.ID].Net > 0 {
			positive = append(positive, c)
		}
	}
	for _, c := range md.ranked {
		if alone[c.ID].Net > 0 {
			filtered = append(filtered, c)
		}
	}
	if !slices.Equal(filtered, rankedBy(positive, rankByDensity(positive, func(i int) float64 { return alone[positive[i].ID].Net }))) {
		return errors.New("the density order filtered to positive nets differs from ranking the positive candidates")
	}
	if got, want := md.problem(sp.BudgetPages), lpProblem(sp, m, lpOrder); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("lp relaxation under budget %d differs from lpProblem's", sp.BudgetPages)
	}
	if md.lp.Budget != 0 {
		return fmt.Errorf("the model's relaxation carries budget %d", md.lp.Budget)
	}
	return nil
}
