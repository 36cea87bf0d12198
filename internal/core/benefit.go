package core

import (
	"context"
	"slices"
	"sync"

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
// costs. It is safe for concurrent use, so searches can evaluate many
// configurations at once.
type evaluator struct {
	a *Advisor
	w *workload.Workload

	// bound scopes the engine to the workload's query list, with the
	// workload fingerprint precomputed.
	bound *whatif.Bound
	// baseCost[qi] is the document-scan cost of query qi.
	baseCost []float64
	// insertNodes holds, per update index, an insert's sample document
	// as the nodes an index can hold (parsed root-path word and raw
	// value), built once per session so pricing a candidate only matches
	// and casts; nil for a delete.
	insertNodes [][]xindex.DocNode
	// deleteDocs holds, per update index, the document count of a
	// delete's collection, read once: a Prepared assumes fixed
	// statistics for its lifetime. 0 means the delete is not charged.
	deleteDocs []int64
	// deleteScope holds, per update index, the document-root scope of a
	// path-restricted delete (zero otherwise).
	deleteScope []pattern.Pattern

	// entryMu guards the memoized per-(update, candidate) state behind
	// updateCost, shared across concurrent evals: entryCount holds
	// index-entry counts (the one expensive non-optimizer computation),
	// delOverlap holds delete-scope overlap decisions.
	entryMu    sync.Mutex
	entryCount map[[2]int]int
	delOverlap map[[2]int]bool
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

func (a *Advisor) newEvaluator(ctx context.Context, w *workload.Workload) (*evaluator, error) {
	ev := &evaluator{a: a, w: w, bound: a.cost.Bind(w.QueryList()),
		entryCount: map[[2]int]int{}, delOverlap: map[[2]int]bool{}}
	// The empty configuration gives every query's document-scan cost.
	base, err := ev.bound.EvaluateConfig(ctx, nil)
	if err != nil {
		return nil, err
	}
	for _, qe := range base.Queries {
		ev.baseCost = append(ev.baseCost, qe.CostNoIndexes)
	}
	for _, u := range w.Updates {
		var nodes []xindex.DocNode
		var docs int64
		var scope pattern.Pattern
		switch u.Kind {
		case workload.UpdateInsert:
			nodes = xindex.DocNodes(u.Doc)
		case workload.UpdateDelete:
			if st, err := a.cat.Stats(u.Collection); err == nil {
				docs = st.Docs
			}
			if u.Path != nil {
				scope = docScope(u.Path.LinearPattern())
			}
		}
		ev.insertNodes = append(ev.insertNodes, nodes)
		ev.deleteDocs = append(ev.deleteDocs, docs)
		ev.deleteScope = append(ev.deleteScope, scope)
	}
	return ev, nil
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

// updateCost charges each update statement for the index entries it
// would add or remove in every configuration index (paper §1: "taking
// into account the cost of updating the index on data modification").
func (ev *evaluator) updateCost(cfg []*Candidate) float64 {
	if len(ev.w.Updates) == 0 {
		return 0
	}
	perEntry := ev.a.maintPerEntry
	var total float64
	for ui, u := range ev.w.Updates {
		for _, c := range cfg {
			if c.Collection != u.Collection {
				continue
			}
			switch u.Kind {
			case workload.UpdateInsert:
				total += u.Weight * float64(ev.docEntries(ui, c)) * perEntry
			case workload.UpdateDelete:
				// Deleting a document removes its entries from every
				// index; estimate with the index's average entries per
				// document, restricted to docs the delete path selects
				// (approximated by full overlap when patterns intersect).
				if ev.deleteDocs[ui] == 0 {
					continue
				}
				perDoc := float64(c.Def.EstEntries) / float64(ev.deleteDocs[ui])
				if u.Path != nil && !ev.deleteOverlaps(ui, c) {
					continue
				}
				total += u.Weight * perDoc * perEntry
			}
		}
	}
	return total
}

// deleteOverlaps is the memoized per-(update, candidate) decision of
// whether update ui's delete scope shares a document root with
// candidate c's pattern; updateCost runs once per configuration
// evaluation, so the candidate's docScope and the kernel lookup are paid
// at most once per pair.
func (ev *evaluator) deleteOverlaps(ui int, c *Candidate) bool {
	key := [2]int{ui, c.ID}
	ev.entryMu.Lock()
	v, ok := ev.delOverlap[key]
	ev.entryMu.Unlock()
	if ok {
		return v
	}
	v = pattern.OverlapsCached(ev.deleteScope[ui], docScope(c.Pattern))
	ev.entryMu.Lock()
	ev.delOverlap[key] = v
	ev.entryMu.Unlock()
	return v
}

// docEntries is the memoized entry count of insert ui's sample document
// in candidate c's index.
func (ev *evaluator) docEntries(ui int, c *Candidate) int {
	key := [2]int{ui, c.ID}
	ev.entryMu.Lock()
	n, ok := ev.entryCount[key]
	ev.entryMu.Unlock()
	if ok {
		return n
	}
	n = docEntriesFor(ev.insertNodes[ui], c)
	ev.entryMu.Lock()
	ev.entryCount[key] = n
	ev.entryMu.Unlock()
	return n
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
