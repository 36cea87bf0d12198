package search

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
	"repro/internal/whatif"
)

// The lp strategy is the CoPhy-style relaxation search: instead of
// pricing configurations one what-if call at a time, it solves the
// fractional index-selection LP over the space's standalone benefit
// matrix (Space.Benefits) — per-(query, candidate)
// benefit coefficients, modular private benefits and update costs, the
// page budget as a knapsack row, and at-most-one side constraints over
// containment chains from the DAG — then deterministically rounds the
// fractional solution and repairs it with a bounded number of real
// what-if evaluations. The relaxation is a single-server surrogate:
// each query is served by at most one index. Its dual value
// (Stats.LP.Bound) upper bounds every configuration's surrogate net,
// not its real what-if net, which can be higher when plans AND
// several indexes.
//
// What-if evaluations are spent only on the rounded configuration and
// the repair pass, so at 10k-50k candidates the strategy runs orders
// of magnitude fewer evaluations than lazy greedy while the benefit
// matrix, built once with the space, carries the model.
func init() { Register(lpStrategy{}) }

// lpRepairRounds caps the what-if repair rounds after rounding. Each
// round may drop unused members and add one candidate priced by real
// marginal evaluations.
const lpRepairRounds = 3

// lpRepairBurst is how many extension candidates one repair round
// prices with real what-if marginals. It is a fixed constant, not the
// evaluator's worker count, so recommendations stay independent of the
// parallelism setting.
const lpRepairBurst = 8

type lpStrategy struct{}

func (lpStrategy) Name() string { return "lp" }

func (lpStrategy) Search(ctx context.Context, sp *Space) (*Result, error) {
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	ctx, tr := newTracer(ctx, "lp", sp)

	// Canonical item order: the space's density order — surrogate
	// standalone net density, densest first, with the greedy
	// strategies' content-only tie-breaks — so the LP's item indices,
	// the rounding heap's tie-breaks, and therefore the recommendation
	// are byte-stable under candidate permutation. The relaxation over
	// it is the space's, under this view's budget.
	prob := md.problem(sp.BudgetPages)
	sol := lp.Solve(prob, lp.Options{})
	support := 0
	for _, x := range sol.X {
		if x > 0 {
			support++
		}
	}
	tr.lp = &LPStats{
		Objective: sol.Objective,
		Bound:     sol.Bound,
		Passes:    sol.Passes,
		Converged: sol.Converged,
		Items:     prob.NumItems,
		NonZero:   md.benefits.NonZero(),
		Chains:    len(prob.Groups),
		Support:   support,
	}
	solve := TraceEvent{Action: ActionSolve, Benefit: sol.Objective}
	if tr.detailed() {
		solve.Note = fmt.Sprintf("lp relaxation: objective %.1f, dual bound %.1f, %d passes (converged=%t), support %d of %d items, %d chains",
			sol.Objective, sol.Bound, sol.Passes, sol.Converged, support, prob.NumItems, len(prob.Groups))
	}
	tr.emit(solve)

	// Deterministic rounding: a lazy-greedy (CELF) scan over the
	// surrogate objective under the budget and containment-antichain
	// constraints, tried from two pivots — LP-support-first (the
	// fractional solution gets the first claim on the budget) and
	// density-first over all candidates (the greedy order, for when a
	// stalled dual leaves the support misleading). Both scans are pure
	// matrix arithmetic; the better surrogate net wins, ties to the
	// density pivot.
	supportPos := make([]int, 0, support)
	rest := make([]int, 0, prob.NumItems-support)
	allPos := make([]int, prob.NumItems)
	for pos := range allPos {
		allPos[pos] = pos
		if sol.X[pos] > 0 {
			supportPos = append(supportPos, pos)
		} else {
			rest = append(rest, pos)
		}
	}
	ra := newLPRounder(sp, prob, md.ranked)
	ra.phase(supportPos)
	ra.phase(rest)
	rb := newLPRounder(sp, prob, md.ranked)
	rb.phase(allPos)
	r, pivot := rb, "density-first"
	if ra.surNet > rb.surNet {
		r, pivot = ra, "support-first"
	}
	tr.lp.Pivot = pivot
	var addNote string
	if tr.detailed() {
		addNote = "surrogate net (" + pivot + ")"
	}
	for _, a := range r.adds {
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: r.cands[a.pos].Key(), Benefit: a.surNet,
			Pages: a.pages, Note: addNote})
	}

	curEval, err := tr.ev.Evaluate(ctx, r.config)
	if err != nil {
		return tr.fail(err, r.config, nil)
	}
	rounded := TraceEvent{Action: ActionRounded, Benefit: curEval.Net, Pages: r.pages}
	if tr.detailed() {
		rounded.Note = fmt.Sprintf("rounded net %.1f vs lp objective %.1f (bound %.1f)", curEval.Net, sol.Objective, sol.Bound)
	}
	tr.emit(rounded)

	// Bounded what-if repair: drop members no plan uses, then try a
	// burst of surrogate-promising extensions priced by real marginal
	// evaluations — the matrix proposes, the what-if service disposes.
	repairBase := tr.ev.calls.Load()
	if curEval, err = r.repair(ctx, tr, curEval); err != nil {
		return tr.fail(err, r.config, curEval)
	}
	tr.lp.RepairEvals = tr.ev.calls.Load() - repairBase

	// Never worse than empty: a rounded configuration that nets out
	// negative is discarded wholesale.
	if curEval.Net < 0 {
		tr.emit(TraceEvent{Action: ActionSkip, Benefit: curEval.Net, Pages: r.pages,
			Note: "rounded configuration nets negative; reverting to the empty configuration"})
		r.config, curEval = nil, nil
	}
	if curEval != nil {
		tr.lp.RoundedNet = curEval.Net
	}
	return tr.finish(ctx, r.config, curEval)
}

// lpProblem assembles the relaxation over the items in order (positions
// in sp.Candidates): weights are the modular nets (private benefit
// minus update cost), rows the per-query benefit coefficients, and
// every (ancestor, descendant) containment pair an at-most-one group.
// Rows are windows of one backing slab, in item order; the rounders
// read weights, sizes and rows from the result. NewSpace builds it once
// per space; the lp strategy prices a copy of its header under the
// view's budget.
func lpProblem(sp *Space, m *whatif.BenefitMatrix, order []int) *lp.Problem {
	prob := &lp.Problem{
		NumItems:   len(order),
		NumQueries: m.NumQueries,
		Weight:     make([]float64, len(order)),
		Size:       make([]int64, len(order)),
		Rows:       make([][]lp.Entry, len(order)),
		Budget:     sp.BudgetPages,
	}
	slab := make([]lp.Entry, 0, m.NonZero())
	for pos, ci := range order {
		prob.Weight[pos] = m.PrivateBenefit(ci) - m.UpdateCost(ci)
		prob.Size[pos] = sp.Candidates[ci].Pages()
		if len(m.Rows[ci]) > 0 {
			start := len(slab)
			for _, e := range m.Rows[ci] {
				slab = append(slab, lp.Entry{Query: e.Query, Benefit: e.Benefit})
			}
			prob.Rows[pos] = slab[start:len(slab):len(slab)]
		}
	}
	if sp.DAG != nil {
		itemOf := make([]int32, len(sp.Candidates)) // candidate ID -> item index, -1 if none
		for i := range itemOf {
			itemOf[i] = -1
		}
		for pos, ci := range order {
			itemOf[sp.Candidates[ci].ID] = int32(pos)
		}
		// Groups are emitted in item order (content-canonical), so the
		// solver's chain-coordinate sweep is deterministic too. Each is
		// an (ancestor, descendant) window of one pair slab.
		var w dagWalker
		var pairs []int32
		for pos, ci := range order {
			w.walk(sp.Candidates[ci].Parents, true, func(p *Candidate) bool {
				if p.ID < len(itemOf) && itemOf[p.ID] >= 0 {
					pairs = append(pairs, itemOf[p.ID], int32(pos))
				}
				return false
			})
		}
		if len(pairs) > 0 {
			prob.Groups = make([][]int32, len(pairs)/2)
			for k := range prob.Groups {
				prob.Groups[k] = pairs[2*k : 2*k+2 : 2*k+2]
			}
		}
	}
	return prob
}

// dagWalker walks the candidate DAG without allocating per walk: one
// visited-stamp table indexed by candidate ID, grown on demand, and
// one reused stack.
type dagWalker struct {
	stamp []uint32
	epoch uint32
	stack []*Candidate
}

// walk visits, depth first and each once, every node reachable from
// start along parent edges (up) or child edges, stopping as soon as
// visit returns true; it reports whether visit stopped it.
func (w *dagWalker) walk(start []*Candidate, up bool, visit func(*Candidate) bool) bool {
	w.epoch++
	if w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	w.stack = append(w.stack[:0], start...)
	for len(w.stack) > 0 {
		n := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if n.ID >= len(w.stamp) {
			w.stamp = append(w.stamp, make([]uint32, n.ID+1-len(w.stamp))...)
		}
		if w.stamp[n.ID] == w.epoch {
			continue
		}
		w.stamp[n.ID] = w.epoch
		if visit(n) {
			return true
		}
		if up {
			w.stack = append(w.stack, n.Parents...)
		} else {
			w.stack = append(w.stack, n.Children...)
		}
	}
	return false
}

// lpRounder is the deterministic rounding state: the growing integral
// configuration, each query's current best surrogate benefit, and the
// chosen-candidate set the containment-antichain check runs against.
// Weights, sizes and rows come from the relaxation, by item position.
type lpRounder struct {
	sp      *Space
	cands   []*Candidate // by item position (canonical order)
	prob    *lp.Problem
	curQ    []float64
	chosen  []bool // by candidate ID
	banned  []bool // by candidate ID: dropped as unused by repair; never re-added
	walker  dagWalker
	config  []*Candidate
	pages   int64
	surNet  float64
	version int
	// adds records the rounding scan's accepted items in order, so the
	// winning pivot's trace can be emitted after the pivots compete.
	adds []lpAdd
}

// lpAdd is one accepted rounding step: the item and the surrogate
// net/pages after it joined.
type lpAdd struct {
	pos    int
	surNet float64
	pages  int64
}

// newLPRounder starts a rounding over the relaxation's items, ranked
// holding the candidate at each item position; it shares ranked, which
// it only reads.
func newLPRounder(sp *Space, prob *lp.Problem, ranked []*Candidate) *lpRounder {
	return &lpRounder{
		sp:     sp,
		cands:  ranked,
		prob:   prob,
		curQ:   make([]float64, prob.NumQueries),
		chosen: make([]bool, len(sp.Candidates)),
		banned: make([]bool, len(sp.Candidates)),
	}
}

// gain is the exact surrogate marginal of adding item pos to the
// current configuration: its modular weight plus, per query, the
// improvement over the query's current best server.
func (r *lpRounder) gain(pos int) float64 {
	g := r.prob.Weight[pos]
	for _, e := range r.prob.Rows[pos] {
		if e.Benefit > r.curQ[e.Query] {
			g += e.Benefit - r.curQ[e.Query]
		}
	}
	return g
}

// density is item pos's surrogate marginal per page.
func (r *lpRounder) density(pos int) float64 { return ratio(r.gain(pos), r.prob.Size[pos]) }

// isChosen reports whether the DAG node is in the configuration; nodes
// outside the space's candidates never are.
func (r *lpRounder) isChosen(n *Candidate) bool { return n.ID < len(r.chosen) && r.chosen[n.ID] }

// conflicts reports whether the candidate is an ancestor or descendant
// of an already chosen one (the at-most-one-per-chain constraint the
// LP's groups encode, enforced exactly on the integral side).
func (r *lpRounder) conflicts(c *Candidate) bool {
	if len(r.config) == 0 {
		return false
	}
	return r.walker.walk(c.Parents, true, r.isChosen) || r.walker.walk(c.Children, false, r.isChosen)
}

// add commits item pos to the configuration and updates the surrogate
// state.
func (r *lpRounder) add(pos int) float64 {
	g := r.gain(pos)
	c := r.cands[pos]
	r.config = append(r.config, c)
	r.chosen[c.ID] = true
	r.pages += r.prob.Size[pos]
	r.surNet += g
	for _, e := range r.prob.Rows[pos] {
		if e.Benefit > r.curQ[e.Query] {
			r.curQ[e.Query] = e.Benefit
		}
	}
	r.version++
	return g
}

// lpRoundItem is one heap entry of the rounding scan: the item's
// last-known marginal surrogate density (an upper bound — marginals
// only shrink as the configuration grows) and the configuration
// version it was computed at.
type lpRoundItem struct {
	pos int
	key float64
	ver int
}

// before is the rounding heap's order, a max-heap over (key desc, pos
// asc): equal marginals resolve to the canonical density-rank
// position, the same tie the greedy strategies use. The order is
// total, so the pop sequence does not depend on the heap's layout.
func (a lpRoundItem) before(b lpRoundItem) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.pos < b.pos
}

// siftDown restores the heap order below index i.
func siftDown(h []lpRoundItem, i int) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[top]) {
			top = l
		}
		if rt := 2*i + 2; rt < len(h) && h[rt].before(h[top]) {
			top = rt
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// phase runs one CELF scan over the given item positions: pop the top,
// refresh its marginal if stale, accept it when fresh and positive.
// Items over budget or in containment conflict are discarded for good
// — the configuration only grows, so neither condition can clear — and
// the scan stops once not even the phase's smallest item fits, since
// every remaining pop would be a discard. The scan costs zero what-if
// evaluations; it is pure matrix arithmetic.
func (r *lpRounder) phase(positions []int) {
	h := make([]lpRoundItem, len(positions))
	minPages := int64(math.MaxInt64)
	for i, pos := range positions {
		h[i] = lpRoundItem{pos: pos, key: r.density(pos), ver: r.version}
		minPages = min(minPages, r.prob.Size[pos])
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 && r.sp.Fits(r.pages+minPages) {
		top := &h[0]
		if top.key <= 0 {
			break // keys are upper bounds: nothing below can be positive
		}
		pos := top.pos
		if r.sp.Fits(r.pages+r.prob.Size[pos]) && !r.conflicts(r.cands[pos]) {
			if top.ver != r.version {
				top.key = r.density(pos)
				top.ver = r.version
				siftDown(h, 0)
				continue
			}
			r.add(pos)
			r.adds = append(r.adds, lpAdd{pos: pos, surNet: r.surNet, pages: r.pages})
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
}

// repair runs the bounded what-if repair loop: per round, drop
// configuration members no plan uses, then price a burst of the most
// surrogate-promising extensions with real marginal evaluations and
// add the best positive one. It returns the repaired evaluation. On a
// what-if error it returns the error with the last complete evaluation
// of r.config (nil when none prices it), for the failure exit.
func (r *lpRounder) repair(ctx context.Context, tr *tracer, curEval *Eval) (*Eval, error) {
	for round := 0; round < lpRepairRounds; round++ {
		changed := false

		pruned := r.config[:0:0]
		for _, c := range r.config {
			if curEval.Uses(c) {
				pruned = append(pruned, c)
				continue
			}
			tr.emit(TraceEvent{Action: ActionReclaim, Candidate: c.Key(), Note: "unused under rounded config"})
			r.chosen[c.ID] = false
			r.banned[c.ID] = true
		}
		if len(pruned) != len(r.config) {
			r.config = pruned
			r.pages = PagesOf(pruned)
			r.rebuildCurQ()
			var err error
			if curEval, err = tr.ev.Evaluate(ctx, r.config); err != nil {
				return nil, err
			}
			changed = true
		}

		batch := r.extensionBurst()
		if len(batch) > 0 {
			cands := make([]*Candidate, len(batch))
			for i, pos := range batch {
				cands[i] = r.cands[pos]
			}
			evals, err := tr.ev.EvaluateBatch(ctx, r.config, cands)
			if err != nil {
				return curEval, err
			}
			// CELF over the burst's real marginals: accept the freshest
			// best positive extension, mark the survivors stale, and
			// refresh one entry per pop — each accepted add costs a
			// handful of evaluations, not a full burst re-pricing.
			items := make([]*lpExt, len(batch))
			for i, pos := range batch {
				items[i] = &lpExt{pos: pos, c: cands[i], eval: evals[i],
					key: ratio(evals[i].Net-curEval.Net, cands[i].Pages()), fresh: true}
			}
			for len(items) > 0 {
				sort.SliceStable(items, func(i, j int) bool {
					if items[i].key != items[j].key {
						return items[i].key > items[j].key
					}
					return items[i].pos < items[j].pos
				})
				top := items[0]
				if top.key <= 0 {
					break
				}
				if !r.sp.Fits(r.pages+top.c.Pages()) || r.conflicts(top.c) {
					items = items[1:]
					continue
				}
				if !top.fresh {
					re, err := tr.ev.EvaluateBatch(ctx, r.config, []*Candidate{top.c})
					if err != nil {
						return curEval, err
					}
					top.eval = re[0]
					top.key = ratio(re[0].Net-curEval.Net, top.c.Pages())
					top.fresh = true
					continue
				}
				r.add(top.pos)
				curEval = top.eval
				tr.round++
				tr.emit(TraceEvent{Action: ActionAdd, Candidate: top.c.Key(), Benefit: curEval.Net,
					Pages: r.pages, Note: "repair: real marginal"})
				changed = true
				items = items[1:]
				for _, it := range items {
					it.fresh = false
				}
			}
		}

		if !changed {
			break
		}
	}
	return curEval, nil
}

// lpExt is one repair-burst entry: the extension candidate, its latest
// real evaluation, and whether that evaluation still reflects the
// current configuration.
type lpExt struct {
	pos   int
	c     *Candidate
	eval  *Eval
	key   float64
	fresh bool
}

// extensionBurst picks the lpRepairBurst unchosen items with the best
// surrogate marginal density that fit the budget and the antichain —
// the repair round's real-evaluation shortlist. Non-positive surrogate
// marginals stay in the pool (ranked last): the surrogate has no
// interaction terms, so a candidate it scores at zero can still carry
// real complementary benefit, and pricing it is exactly what repair is
// for. The burst size is constant so recommendations stay
// parallelism-independent.
func (r *lpRounder) extensionBurst() []int {
	type scored struct {
		pos int
		key float64
	}
	var top []scored
	for pos, c := range r.cands {
		if r.chosen[c.ID] || r.banned[c.ID] {
			continue
		}
		if !r.sp.Fits(r.pages+r.prob.Size[pos]) || r.conflicts(c) {
			continue
		}
		top = append(top, scored{pos: pos, key: r.density(pos)})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].key != top[j].key {
			return top[i].key > top[j].key
		}
		return top[i].pos < top[j].pos
	})
	if len(top) > lpRepairBurst {
		top = top[:lpRepairBurst]
	}
	out := make([]int, len(top))
	for i, s := range top {
		out[i] = s.pos
	}
	return out
}

// rebuildCurQ recomputes the per-query best surrogate benefit from the
// current configuration after members were dropped.
func (r *lpRounder) rebuildCurQ() {
	for q := range r.curQ {
		r.curQ[q] = 0
	}
	for pos, c := range r.cands {
		if !r.chosen[c.ID] {
			continue
		}
		for _, e := range r.prob.Rows[pos] {
			if e.Benefit > r.curQ[e.Query] {
				r.curQ[e.Query] = e.Benefit
			}
		}
	}
}
