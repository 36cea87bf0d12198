package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
)

// Candidate is one basic candidate index enumerated for a query: a leg
// pattern that the optimizer's index matching proved usable, with the SQL
// type an index must have to serve it.
type Candidate struct {
	Pattern pattern.Pattern
	Type    sqltype.Type
	// Leg is the originating query leg.
	Leg querylang.Leg
}

// Key identifies the candidate by what it would index.
func (c Candidate) Key() string { return c.Pattern.String() + "|" + c.Type.Short() }

// String renders the candidate.
func (c Candidate) String() string {
	return fmt.Sprintf("%s AS %s", c.Pattern, c.Type.String())
}

// universalDefs builds the virtual //* and //@* indexes (one per SQL
// type) that the Enumerate Indexes mode plants in the catalog view.
func universalDefs(coll string) []*catalog.IndexDef {
	var defs []*catalog.IndexDef
	for _, t := range sqltype.Types {
		defs = append(defs,
			&catalog.IndexDef{
				Name:       "VIRT_ALL_ELEM_" + t.Short(),
				Collection: coll,
				Pattern:    pattern.UniversalFor(pattern.TestElem),
				Type:       t,
				Virtual:    true,
				EstEntries: 1, EstPages: 1, // size is irrelevant for matching
			},
			&catalog.IndexDef{
				Name:       "VIRT_ALL_ATTR_" + t.Short(),
				Collection: coll,
				Pattern:    pattern.UniversalFor(pattern.TestAttr),
				Type:       t,
				Virtual:    true,
				EstEntries: 1, EstPages: 1,
			})
	}
	return defs
}

// EnumerateIndexes is the first new EXPLAIN mode (paper §2.1): it plants
// the universal virtual indexes and reports every query pattern that the
// ordinary index-matching code matched against them — the basic candidate
// set for the query. Output (extraction) legs are excluded: a value index
// never serves extraction. Disjunct (OR/NOT) legs are included: DB2 can
// use index ORing for them, so they are legitimate candidates.
func (o *Optimizer) EnumerateIndexes(q *querylang.Query) ([]Candidate, error) {
	st, err := o.Cat.Stats(q.Collection)
	if err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	virt := universalDefs(q.Collection)
	var out []Candidate
	seen := map[string]bool{}
	for _, leg := range q.Legs() {
		if leg.Output {
			continue
		}
		// Reuse the very same matching routine normal optimization
		// uses; a leg is a candidate iff it matches a universal index.
		acc, ok := o.bestAccess(st, leg, virt)
		if !ok {
			continue
		}
		c := Candidate{Pattern: leg.Pattern, Type: acc.Index.Type, Leg: leg}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// Evaluation is the outcome of the Evaluate Indexes mode for one query.
type Evaluation struct {
	Plan *Plan
	// CostNoIndexes is the document-scan cost (the "original cost").
	CostNoIndexes float64
	// Cost is the estimated cost under the evaluated configuration.
	Cost float64
	// UsedIndexes names the configuration indexes the plan chose.
	UsedIndexes []string
	// Benefit is CostNoIndexes - Cost (>= 0).
	Benefit float64
}

// EvaluateIndexes is the second new EXPLAIN mode (paper §2.3): simulate
// an index configuration made of virtual indexes and estimate the query
// cost under it. When virtualOnly is true the catalog's real indexes are
// hidden, so the evaluation isolates the configuration — this is what the
// advisor's search uses.
func (o *Optimizer) EvaluateIndexes(q *querylang.Query, config []*catalog.IndexDef, virtualOnly bool) (*Evaluation, error) {
	opt := o
	if virtualOnly {
		c := *o
		c.virtualOnly = true
		opt = &c
	}
	plan, err := opt.Optimize(q, config)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Plan:          plan,
		CostNoIndexes: plan.DocScanCost,
		Cost:          plan.Cost,
	}
	for _, name := range plan.IndexNames() {
		if slices.ContainsFunc(config, func(d *catalog.IndexDef) bool { return d.Name == name }) {
			ev.UsedIndexes = append(ev.UsedIndexes, name)
		}
	}
	sort.Strings(ev.UsedIndexes)
	ev.Benefit = ev.CostNoIndexes - ev.Cost
	if ev.Benefit < 0 {
		ev.Benefit = 0
	}
	return ev, nil
}

// ExplainEnumerate renders the Enumerate Indexes output as text (the
// content of the paper's Figure 2 screen).
func (o *Optimizer) ExplainEnumerate(q *querylang.Query) (string, error) {
	cands, err := o.EnumerateIndexes(q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN MODE: ENUMERATE INDEXES\nquery: %s\n", strings.TrimSpace(q.Text))
	fmt.Fprintf(&sb, "basic candidates (%d):\n", len(cands))
	for _, c := range cands {
		fmt.Fprintf(&sb, "  %s\n", c)
	}
	return sb.String(), nil
}

// RenderEvaluation formats the EVALUATE INDEXES screen (the content of
// the paper's Figure 3) from an evaluation's costs and its plan's
// rendering (Plan.Describe).
func RenderEvaluation(queryText string, config []*catalog.IndexDef, costNoIdx, cost, benefit float64, planDesc string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN MODE: EVALUATE INDEXES\nquery: %s\n", strings.TrimSpace(queryText))
	fmt.Fprintf(&sb, "configuration (%d indexes):\n", len(config))
	for _, d := range config {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	fmt.Fprintf(&sb, "cost without indexes: %10.2f\n", costNoIdx)
	fmt.Fprintf(&sb, "cost with config:     %10.2f\n", cost)
	fmt.Fprintf(&sb, "benefit:              %10.2f\n", benefit)
	fmt.Fprintf(&sb, "plan: %s\n", planDesc)
	return sb.String()
}
