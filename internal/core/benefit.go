package core

import (
	"context"
	"slices"

	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
	"repro/internal/xindex"
)

// evaluator computes workload benefits of candidate configurations. All
// what-if costing goes through the advisor's whatif engine, which fans
// per-query evaluations across a worker pool and memoizes configuration
// results; the evaluator only derives workload-level aggregates (weighted
// benefit, update cost, candidate usage) from the engine's per-query
// costs. Everything it holds is written once, when it is built, so
// concurrent searches evaluate configurations through it without a lock.
type evaluator struct {
	w *workload.Workload

	// bound scopes the engine to the workload's query list, with the
	// workload fingerprint precomputed.
	bound *whatif.Bound
	// baseCost[qi] is the document-scan cost of query qi.
	baseCost []float64
	// maint[ui][id] is update ui's maintenance charge for the candidate
	// with that ID. The charge is modular (one fixed amount per update
	// and index), so every pair is priced once, when the evaluator is
	// built, and a configuration's update cost is a sum over the table.
	maint [][]float64
}

// configEval is the derived evaluation of one configuration with the
// per-query detail assembly reports: the workload-level figures
// (QueryBenefit, UpdateCost, Net, Usage) plus each query's cost and the
// candidates its plan uses.
type configEval struct {
	search.Eval
	// queryCost[qi] is the estimated cost of query qi under the config.
	queryCost []float64
	// usedBy[qi] lists config candidate IDs used by query qi's plan.
	usedBy [][]int
}

// newEvaluator binds the workload and prices every update's maintenance
// for each of cands, whose IDs must be dense: the evaluator can then
// price any configuration drawn from cands.
func (a *Advisor) newEvaluator(ctx context.Context, w *workload.Workload, cands []*Candidate) (*evaluator, error) {
	ev := &evaluator{w: w, bound: a.cost.Bind(w.QueryList())}
	// The empty configuration gives every query's document-scan cost.
	base, err := ev.bound.EvaluateConfig(ctx, nil)
	if err != nil {
		return nil, err
	}
	for _, qe := range base.Queries {
		ev.baseCost = append(ev.baseCost, qe.CostNoIndexes)
	}
	for _, u := range w.Updates {
		ev.maint = append(ev.maint, a.maintenance(u, cands))
	}
	return ev, nil
}

// benefitMatrix builds the standalone per-(query, candidate) benefit
// matrix over cands, row i for cands[i]: entry (q, c) is the query's
// weighted cost reduction when c is installed alone, and Update[i] is
// c's maintenance cost read off the evaluator's table. It costs one
// standalone what-if evaluation per candidate, batched through the
// engine, so atoms already cached (a restored snapshot's) are free. Row
// sums equal the standalone QueryBenefit the evaluator reports, which
// the cross-check test pins.
func (ev *evaluator) benefitMatrix(ctx context.Context, cands []*Candidate) (*whatif.BenefitMatrix, error) {
	results, err := ev.bound.EvaluateExtensions(ctx, nil, defsOfCandidates(cands))
	if err != nil {
		return nil, err
	}
	m := &whatif.BenefitMatrix{
		NumQueries: len(ev.w.Queries),
		Rows:       make([][]whatif.BenefitEntry, len(cands)),
		Update:     make([]float64, len(cands)),
	}
	for ci, res := range results {
		m.Update[ci] = ev.updateCost(cands[ci : ci+1])
		for qi, e := range ev.w.Queries {
			if b := res.Queries[qi].Benefit(); b > 0 {
				m.Rows[ci] = append(m.Rows[ci], whatif.BenefitEntry{Query: int32(qi), Benefit: e.Weight * b})
			}
		}
	}
	return m, nil
}

// maintenance charges update u for the index entries it would add or
// remove in each of cands' indexes (paper §1: "taking into account the
// cost of updating the index on data modification"), in a row indexed
// by candidate ID. An index on another collection pays nothing.
func (a *Advisor) maintenance(u workload.Update, cands []*Candidate) []float64 {
	row := make([]float64, len(cands))
	switch u.Kind {
	case workload.UpdateInsert:
		// An insert pays for the exact entries its sample document adds.
		nodes := xindex.DocNodes(u.Doc)
		for _, c := range cands {
			if c.Collection == u.Collection {
				row[c.ID] = u.Weight * float64(docEntriesFor(nodes, c)) * a.maintPerEntry
			}
		}
	case workload.UpdateDelete:
		// Deleting a document removes its entries from every index;
		// estimate with the index's average entries per document,
		// restricted to docs the delete path selects (approximated by
		// full overlap when the document roots agree). A Prepared assumes
		// fixed statistics for its lifetime.
		st, err := a.cat.Stats(u.Collection)
		if err != nil || st.Docs == 0 {
			return row
		}
		var scope pattern.Pattern
		if u.Path != nil {
			scope = docScope(u.Path.LinearPattern())
		}
		for _, c := range cands {
			if c.Collection != u.Collection || u.Path != nil && !pattern.OverlapsCached(scope, docScope(c.Pattern)) {
				continue
			}
			perDoc := float64(c.Def.EstEntries) / float64(st.Docs)
			row[c.ID] = u.Weight * perDoc * a.maintPerEntry
		}
	}
	return row
}

// eval returns the evaluation of a configuration with its per-query
// detail. The underlying per-query costs are memoized by the whatif
// engine; the derivation here is cheap (no optimizer calls).
func (ev *evaluator) eval(ctx context.Context, cfg []*Candidate) (*configEval, error) {
	res, err := ev.bound.EvaluateConfig(ctx, defsOfCandidates(cfg))
	if err != nil {
		return nil, err
	}
	return ev.derive(res, cfg), nil
}

// degradedEval is the conservative fallback evaluation for assembling a
// degraded recommendation when the what-if backend is unavailable
// (circuit breaker open) and a configuration's atoms are not all
// cached: every query is priced at its document-scan base cost (no
// measured improvement), no index usage is claimed, and only the
// locally computed maintenance cost is charged. For the empty
// configuration this is exact; otherwise it underclaims, never
// overclaims.
func (ev *evaluator) degradedEval(cfg []*Candidate) *configEval {
	out := &configEval{
		queryCost: append([]float64(nil), ev.baseCost...),
		usedBy:    make([][]int, len(ev.baseCost)),
	}
	out.UpdateCost = ev.updateCost(cfg)
	out.Net = -out.UpdateCost
	return out
}

// aggregate turns the engine's per-query costs into the workload-level
// figures strategies rank by: weighted benefit and update cost. Plan
// usage stays the engine's per-query result, resolved only when a
// strategy reclaims. No optimizer calls.
func (ev *evaluator) aggregate(res *whatif.ConfigEval, cfg []*Candidate) search.Eval {
	out := search.Eval{Usage: (*planUsage)(res)}
	for qi, e := range ev.w.Queries {
		out.QueryBenefit += e.Weight * (ev.baseCost[qi] - res.Queries[qi].Cost)
	}
	out.UpdateCost = ev.updateCost(cfg)
	out.Net = out.QueryBenefit - out.UpdateCost
	return out
}

// planUsage reads plan usage off the engine's per-query results in
// place: a member is used when some query's plan names its index.
type planUsage whatif.ConfigEval

func (u *planUsage) Uses(c *Candidate) bool {
	for _, qe := range u.Queries {
		if slices.Contains(qe.UsedIndexes, c.Def.Name) {
			return true
		}
	}
	return false
}

// derive is aggregate plus the per-query detail assembly reports.
func (ev *evaluator) derive(res *whatif.ConfigEval, cfg []*Candidate) *configEval {
	n := len(ev.w.Queries)
	out := &configEval{Eval: ev.aggregate(res, cfg), queryCost: make([]float64, n), usedBy: make([][]int, n)}
	for qi := range ev.w.Queries {
		qe := res.Queries[qi]
		out.queryCost[qi] = qe.Cost
		for _, name := range qe.UsedIndexes {
			if id, ok := candidateNamed(cfg, name); ok {
				out.usedBy[qi] = append(out.usedBy[qi], id)
			}
		}
	}
	return out
}

// candidateNamed returns the ID of the candidate of cfg whose definition
// is called name (the last such, should several be).
func candidateNamed(cfg []*Candidate, name string) (int, bool) {
	for i := len(cfg) - 1; i >= 0; i-- {
		if cfg[i].Def.Name == name {
			return cfg[i].ID, true
		}
	}
	return 0, false
}

// updateCost sums the maintenance table over the configuration's
// members, update by update.
func (ev *evaluator) updateCost(cfg []*Candidate) float64 {
	var total float64
	for _, row := range ev.maint {
		for _, c := range cfg {
			total += row[c.ID]
		}
	}
	return total
}

// docScope reduces a pattern to its first step: two patterns can share a
// document only if they agree on the document root element.
func docScope(p pattern.Pattern) pattern.Pattern {
	if p.IsZero() {
		return p
	}
	return p.Prefix(1)
}

// docEntriesFor counts the index entries a document, given as its
// xindex.DocNodes, would contribute to candidate c: exact maintenance
// work for an insert of it. The rule is the physical index's own
// (DocNode.Key), so the charge is what xindex.InsertDoc would add.
func docEntriesFor(nodes []xindex.DocNode, c *Candidate) int {
	m := pattern.InternedMatcher(c.Pattern)
	n := 0
	for i := range nodes {
		if _, ok := nodes[i].Key(m, c.Type); ok {
			n++
		}
	}
	return n
}
