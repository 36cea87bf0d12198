package search

import (
	"container/heap"
	"context"

	"repro/internal/candidate"
)

// lazyItem is one candidate in the lazy-greedy priority queue: its
// last-known marginal benefit density (an upper bound on the current
// marginal), the position in the standalone density ranking (the
// deterministic tie-break), the round the key was computed against
// (freshness), and the evaluation that produced the key (reused as the
// round's configuration evaluation when the item is selected).
type lazyItem struct {
	c     *Candidate
	key   float64
	pos   int
	round int
	eval  *Eval
}

// lazyHeap is a max-heap over (key desc, pos asc): the same order an
// eager prefix scan resolves ties in — earliest density-rank position
// wins among equal marginals — so popping the heap reproduces the eager
// selection exactly.
type lazyHeap []*lazyItem

func (h lazyHeap) Len() int { return len(h) }
func (h lazyHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].pos < h[j].pos
}
func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)   { *h = append(*h, x.(*lazyItem)) }
func (h *lazyHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// lazy is the submodular lazy-evaluation form of the interaction-aware
// greedy heuristic (the CELF trick): keep candidates in a max-heap
// keyed by their last-known marginal benefit density — initialized from
// standalone nets, which upper-bound marginals — and each round
// re-evaluate only popped tops until the freshly re-evaluated top beats
// every stale key below it. When marginals shrink as the configuration
// grows (submodularity), a stale key is an upper bound and the fresh
// top is exactly the argmax an eager prefix scan (re-evaluate every
// eligible candidate down the density order each round) finds — at a
// fraction of the what-if calls. The real cost model can violate that
// locally (index interactions), so equality with an eager scan oracle is
// additionally pinned empirically by property tests on the shipped
// workloads.
//
// Each step refreshes one stale top, the canonical CELF step. Refreshing
// several tops at once would make the selection depend on how many got
// refreshed (a grown marginal can surface early), and a burst sized by
// the worker count would make recommendations depend on the parallelism
// setting, which E12 pins they do not. The seeding keys cost no
// evaluation: they come from the space's benefit model.
//
// Two situations fall back to first principles: a candidate that fails
// the budget or redundancy filter is parked for the round and re-tried
// later (the filters depend on the configuration, which both grows and
// shrinks), and a reclamation that shrinks the configuration resets
// every key to its standalone upper bound (marginals may have grown
// back, so last-known marginals are no longer bounds).
func (g greedyHeuristic) lazy(ctx context.Context, sp *Space, tr *tracer,
	alone []Eval, order []*Candidate) (*Result, error) {
	width := bitsetWidth(sp.Candidates)
	var config []*Candidate
	covered := candidate.NewBitset(width)

	curEval, err := tr.ev.Evaluate(ctx, nil)
	if err != nil {
		return tr.fail(err, nil, nil)
	}
	// Round 1 keys are exact, not just bounds: against the empty
	// configuration the marginal IS the standalone net, so the first
	// selection costs no re-evaluations at all.
	items := make([]lazyItem, len(order))
	h := make(lazyHeap, len(order))
	for i, c := range order {
		items[i] = lazyItem{c: c, key: ratio(alone[c.ID].Net, c.Pages()), pos: i, round: 1, eval: &alone[c.ID]}
		h[i] = &items[i]
	}
	heap.Init(&h)

	round := 1
	var parked []*lazyItem
	for {
		pages := PagesOf(config)
		parked = parked[:0]
		var selected *lazyItem
		// Keys are upper bounds: once the top's is not positive, nothing
		// below it can have a positive marginal, fresh or not.
		for len(h) > 0 && h[0].key > 0 {
			top := heap.Pop(&h).(*lazyItem)
			if !sp.Fits(pages+top.c.Pages()) || top.c.Covers().SubsetOf(covered) {
				parked = append(parked, top)
				continue
			}
			if top.round == round {
				// Fresh: no stale key above it can compete, so it is the
				// exact argmax of this round's marginals.
				selected = top
				break
			}
			evals, err := tr.ev.EvaluateBatch(ctx, config, []*Candidate{top.c})
			if err != nil {
				return tr.fail(err, config, curEval)
			}
			top.key = ratio(evals[0].Net-curEval.Net, top.c.Pages())
			top.round = round
			top.eval = evals[0]
			heap.Push(&h, top)
		}
		// Parked items stay candidates for later rounds: the budget
		// filter can pass again after reclamation shrinks the
		// configuration, and redundancy is re-checked per round.
		for _, it := range parked {
			heap.Push(&h, it)
		}
		if selected == nil {
			break
		}

		config = append(config, selected.c)
		selected.c.Covers().OrInto(covered)
		curEval = selected.eval
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: selected.c.Key(), Benefit: curEval.Net,
			Pages: PagesOf(config), Covered: covered.Count(), Of: width})

		// Reclaim space held by members no plan uses anymore.
		if pruned := reclaim(tr, config, curEval); len(pruned) != len(config) {
			config = pruned
			curEval, err = tr.ev.Evaluate(ctx, config)
			if err != nil {
				// Reclaimed members were unused, so the selection's
				// evaluation still prices this configuration.
				return tr.fail(err, config, selected.eval)
			}
			covered = coverage(width, config)
			// The configuration shrank, so marginals may have grown:
			// last-known marginals are no longer upper bounds. Standalone
			// nets still are — reset every key to that bound.
			for _, it := range h {
				it.key = ratio(alone[it.c.ID].Net, it.c.Pages())
				it.round = 0
				it.eval = &alone[it.c.ID]
			}
			heap.Init(&h)
		}
		round++
	}
	return tr.finish(ctx, config, curEval)
}
