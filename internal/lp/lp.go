// Package lp is a small pure-Go solver for the fractional
// index-selection relaxation (the CoPhy-style LP): given per-(query,
// candidate) benefit coefficients, per-candidate modular net weights,
// sizes, a disk budget, and at-most-one side constraints over
// containment chains, it computes a fractional installation vector and
// an upper bound on every feasible configuration's surrogate net
// benefit. The surrogate is this LP's objective, in which each query is
// served by at most one index; it bounds a cost model only as far as
// that model agrees with it, and a model whose plans combine several
// indexes can exceed it.
//
// The LP, with x_c the installed fraction of candidate c and y_qc the
// fraction of query q served by c:
//
//	max  Σ_c w_c·x_c + Σ_(q,c) b_qc·y_qc
//	s.t. y_qc ≤ x_c                 (serving needs the index)
//	     Σ_c y_qc ≤ 1    per query  (a query is served once)
//	     Σ_c s_c·x_c ≤ B            (disk budget, when B > 0)
//	     Σ_{c∈G} x_c ≤ 1 per group  (containment-chain redundancy)
//	     0 ≤ x, y ≤ 1
//
// The solver works on the dual by exact coordinate descent: each
// query price β_q, chain rent γ_G, and the budget price λ minimize a
// one-dimensional piecewise-linear convex function whose breakpoints
// are scanned exactly (a "second price" per query and per chain, a
// density threshold for λ). Every iterate is dual feasible, so
//
//	D(β, λ, γ) = Σ_q β_q + λ·B + Σ_G γ_G + Σ_c (R_c)₊
//
// with reduced profit R_c = w_c + Σ_q (b_qc − β_q)₊ − λ·s_c − Σ_{G∋c} γ_G
// is a valid upper bound at any pass count — an early stop only
// loosens the bound, never invalidates it. Descent is deterministic
// (fixed coordinate order, exact breakpoint scans, no randomization),
// so identical problems produce identical solutions.
//
// Per pass, the query prices scan per-query incidence lists held as
// windows of one CSR slab (built once per solve, in item order), and λ
// is found by weighted selection — a quickselect over the positive
// densities that sums page sizes — in expected linear time, with the
// same result a full sort would give.
package lp

import "sort"

// Entry is one (query, benefit) coefficient of an item's sparse
// benefit row.
type Entry struct {
	// Query is the query index in [0, NumQueries).
	Query int32
	// Benefit is the non-negative benefit of serving the query with
	// this item.
	Benefit float64
}

// Problem is one fractional index-selection instance. Items are dense
// 0..NumItems-1; callers choose the item order (the solver breaks
// exact ties toward lower indices, so a content-canonical order makes
// solutions independent of input permutation).
type Problem struct {
	// NumItems is the candidate count.
	NumItems int
	// NumQueries is the query count (the column space of Rows).
	NumQueries int
	// Weight is the per-item modular net weight w_c (private benefit
	// minus update cost); may be negative.
	Weight []float64
	// Size is the per-item size in pages; non-positive sizes count as
	// one page.
	Size []int64
	// Budget is the page budget B; 0 or negative means unlimited.
	Budget int64
	// Rows is the sparse benefit row of each item, sorted by query.
	Rows [][]Entry
	// Groups are the at-most-one side constraints: each group lists
	// item indices of one containment chain (Σ x ≤ 1).
	Groups [][]int32
}

// Options tune the solver. The zero value selects defaults.
type Options struct {
	// MaxPasses caps full coordinate-descent passes (0 = default 48).
	MaxPasses int
	// Tol is the relative dual-improvement convergence threshold
	// (0 = default 1e-7).
	Tol float64
}

// DefaultMaxPasses is the pass cap used when Options.MaxPasses is 0.
const DefaultMaxPasses = 48

const defaultTol = 1e-7

// Solution is one solve: the fractional installation vector, its
// primal objective value, and the dual upper bound.
type Solution struct {
	// X is the fractional installation per item, in [0, 1].
	X []float64
	// Objective is the primal value of X (a lower bound on the LP
	// optimum).
	Objective float64
	// Bound is the dual objective at the final iterate: an upper bound
	// on the LP optimum, and therefore on the surrogate net benefit of
	// every feasible integral configuration (one serving index per
	// query). It is not a bound on a net priced by a cost model whose
	// plans use several indexes per query.
	Bound float64
	// Passes is the number of coordinate-descent passes performed.
	Passes int
	// Converged reports whether the dual improvement fell below the
	// tolerance before the pass cap.
	Converged bool
	// Lambda is the final budget price (0 when the budget is slack or
	// unlimited).
	Lambda float64
	// Reduced is the final reduced profit R_c per item: the dual
	// surplus an item retains after paying its query, budget, and
	// chain prices. Positive entries are the LP's support.
	Reduced []float64
}

// qItem is one incidence-list entry: an item serving a query, with
// its benefit coefficient.
type qItem struct {
	item int32
	b    float64
}

// Solve runs deterministic dual coordinate descent and extracts a
// budget- and group-feasible fractional primal from the final reduced
// profits. A nil problem or one with no items yields an empty
// solution with a zero bound, so callers need no special cases.
func Solve(p *Problem, o Options) *Solution {
	if p == nil || p.NumItems == 0 {
		return &Solution{Converged: true}
	}
	maxPasses := o.MaxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultMaxPasses
	}
	tol := o.Tol
	if tol <= 0 {
		tol = defaultTol
	}

	n := p.NumItems
	size := make([]float64, n)
	for i := 0; i < n; i++ {
		s := int64(1)
		if i < len(p.Size) && p.Size[i] > 0 {
			s = p.Size[i]
		}
		size[i] = float64(s)
	}
	weight := func(i int) float64 {
		if i < len(p.Weight) {
			return p.Weight[i]
		}
		return 0
	}

	// Incidence lists: per query, the items serving it, as windows of
	// one CSR slab — a count pass sizes every window, a fill pass in
	// item order writes it, so every per-query scan is deterministic.
	count := make([]int, p.NumQueries)
	for i := 0; i < n && i < len(p.Rows); i++ {
		for _, e := range p.Rows[i] {
			if serves(e, p.NumQueries) {
				count[e.Query]++
			}
		}
	}
	byQuery := windows[qItem](count)
	for i := 0; i < n && i < len(p.Rows); i++ {
		for _, e := range p.Rows[i] {
			if serves(e, p.NumQueries) {
				byQuery[e.Query] = append(byQuery[e.Query], qItem{item: int32(i), b: e.Benefit})
			}
		}
	}

	// Initial dual point: all prices zero, so R_c is the item's full
	// standalone surrogate net. The first pass immediately reprices.
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		r[i] = weight(i)
		if i < len(p.Rows) {
			for _, e := range p.Rows[i] {
				if e.Benefit > 0 {
					r[i] += e.Benefit
				}
			}
		}
	}
	beta := make([]float64, p.NumQueries)
	gamma := make([]float64, len(p.Groups))
	lambda := 0.0
	budget := float64(p.Budget)

	dual := func() float64 {
		d := 0.0
		if p.Budget > 0 {
			d += lambda * budget
		}
		for _, b := range beta {
			d += b
		}
		for _, g := range gamma {
			d += g
		}
		for _, rc := range r {
			if rc > 0 {
				d += rc
			}
		}
		return d
	}

	var scratch []density

	sol := &Solution{}
	prev := dual()
	for pass := 1; pass <= maxPasses; pass++ {
		sol.Passes = pass
		// Query prices: the exact coordinate minimum is the second
		// largest positive u_c = b_qc + min(R_c − (b_qc − β_q)₊, 0) —
		// a second-price auction where each item bids the benefit it
		// can actually back with surplus from its other queries.
		for q, items := range byQuery {
			if len(items) == 0 {
				continue
			}
			old := beta[q]
			var u1, u2 float64
			for _, e := range items {
				cur := e.b - old
				if cur < 0 {
					cur = 0
				}
				u := e.b
				if k := r[e.item] - cur; k < 0 {
					u += k
				}
				if u > u1 {
					u1, u2 = u, u1
				} else if u > u2 {
					u2 = u
				}
			}
			if u2 != old {
				beta[q] = u2
				for _, e := range items {
					curOld := e.b - old
					if curOld < 0 {
						curOld = 0
					}
					curNew := e.b - u2
					if curNew < 0 {
						curNew = 0
					}
					r[e.item] += curNew - curOld
				}
			}
		}
		// Chain rents: again a second price, over the group members'
		// rent-free reduced profits.
		for k, group := range p.Groups {
			if len(group) == 0 {
				continue
			}
			old := gamma[k]
			var u1, u2 float64
			for _, it := range group {
				u := r[it] + old
				if u > u1 {
					u1, u2 = u, u1
				} else if u > u2 {
					u2 = u
				}
			}
			if u2 != old {
				gamma[k] = u2
				for _, it := range group {
					r[it] += old - u2
				}
			}
		}
		// Budget price: the smallest λ at which the items still paying
		// for themselves fit the budget — the marginal profit density
		// at the budget boundary.
		if p.Budget > 0 {
			old := lambda
			scratch = scratch[:0]
			for i := 0; i < n; i++ {
				if u := r[i] + old*size[i]; u > 0 {
					scratch = append(scratch, density{d: u / size[i], s: size[i]})
				}
			}
			nl := budgetPrice(scratch, budget)
			if nl != old {
				lambda = nl
				for i := 0; i < n; i++ {
					r[i] += (old - nl) * size[i]
				}
			}
		}
		d := dual()
		if improved := prev - d; improved <= tol*(1+abs(d)) {
			prev = d
			sol.Converged = true
			break
		}
		prev = d
	}

	sol.Bound = prev
	sol.Lambda = lambda
	sol.Reduced = r
	sol.X = extractPrimal(p, r, size)
	sol.Objective = primalValue(p, sol.X, byQuery, weight)
	return sol
}

// windows carves one slab into empty windows, window i with room for
// exactly count[i] elements: appending to a window fills the slab in
// place, so a count pass and a fill pass build a CSR layout with two
// allocations.
func windows[T any](count []int) [][]T {
	total := 0
	for _, c := range count {
		total += c
	}
	slab := make([]T, total)
	out := make([][]T, len(count))
	off := 0
	for i, c := range count {
		out[i] = slab[off : off : off+c]
		off += c
	}
	return out
}

// serves reports whether a row entry joins the incidence lists: a
// positive benefit on a query inside the column space.
func serves(e Entry, numQueries int) bool {
	return e.Benefit > 0 && e.Query >= 0 && int(e.Query) < numQueries
}

// density is one item's budget-price breakpoint: its reduced profit
// per page and its size in pages.
type density struct{ d, s float64 }

// budgetPrice returns the budget price λ over the breakpoints: the
// largest density d such that the items of density ≥ d need more than
// budget pages, or 0 when everything fits. It is a weighted
// quickselect — a three-way partition around the middle element, then
// on into the side that holds the budget boundary — so a pass costs
// expected O(n) instead of a full sort. It only compares densities and
// adds integer page sizes, so it returns exactly what a descending
// sort and prefix scan would. ds is reordered.
func budgetPrice(ds []density, budget float64) float64 {
	above := 0.0 // pages of the densities greater than all of ds
	for len(ds) > 0 {
		pivot := ds[len(ds)/2].d
		// Partition: ds[:gt] > pivot, ds[gt:lt] == pivot, ds[lt:] < pivot.
		gt, i, lt := 0, 0, len(ds)
		gs, es := 0.0, 0.0
		for i < lt {
			switch d := ds[i].d; {
			case d > pivot:
				gs += ds[i].s
				ds[gt], ds[i] = ds[i], ds[gt]
				gt++
				i++
			case d < pivot:
				lt--
				ds[i], ds[lt] = ds[lt], ds[i]
			default:
				es += ds[i].s
				i++
			}
		}
		switch {
		case above+gs > budget:
			ds = ds[:gt]
		case above+gs+es > budget:
			return pivot
		default:
			above += gs + es
			ds = ds[lt:]
		}
	}
	return 0
}

// supportEps is the reduced-profit threshold below which an item is
// treated as outside the LP support.
const supportEps = 1e-9

// extractPrimal builds a feasible fractional x from the final reduced
// profits: items with positive R in profit-density order fill the
// budget (the boundary item fractionally), capped by their chains'
// remaining at-most-one capacity. Ties break toward lower item
// indices.
func extractPrimal(p *Problem, r []float64, size []float64) []float64 {
	n := p.NumItems
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if r[i] > supportEps {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da := r[order[a]] / size[order[a]]
		db := r[order[b]] / size[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	// groupsOf lists each item's groups, as windows of one slab.
	count := make([]int, n)
	for _, group := range p.Groups {
		for _, it := range group {
			count[it]++
		}
	}
	groupsOf := windows[int32](count)
	for k, group := range p.Groups {
		for _, it := range group {
			groupsOf[it] = append(groupsOf[it], int32(k))
		}
	}
	groupRem := make([]float64, len(p.Groups))
	for k := range groupRem {
		groupRem[k] = 1
	}
	budgetRem := float64(p.Budget)
	x := make([]float64, n)
	for _, i := range order {
		cap := 1.0
		for _, k := range groupsOf[i] {
			if groupRem[k] < cap {
				cap = groupRem[k]
			}
		}
		if p.Budget > 0 {
			if byBudget := budgetRem / size[i]; byBudget < cap {
				cap = byBudget
			}
		}
		if cap <= supportEps {
			continue
		}
		x[i] = cap
		if p.Budget > 0 {
			budgetRem -= cap * size[i]
		}
		for _, k := range groupsOf[i] {
			groupRem[k] -= cap
		}
	}
	return x
}

// primalValue prices a fractional x: modular weights plus, per query,
// the fractional best-first assignment of its unit of service to the
// installed items.
func primalValue(p *Problem, x []float64, byQuery [][]qItem, weight func(int) float64) float64 {
	total := 0.0
	for i, xi := range x {
		if xi > 0 {
			total += weight(i) * xi
		}
	}
	var served []qItem
	for _, items := range byQuery {
		served = served[:0]
		for _, e := range items {
			if x[e.item] > 0 {
				served = append(served, e)
			}
		}
		if len(served) == 0 {
			continue
		}
		sort.Slice(served, func(a, b int) bool {
			if served[a].b != served[b].b {
				return served[a].b > served[b].b
			}
			return served[a].item < served[b].item
		})
		rem := 1.0
		for _, e := range served {
			take := x[e.item]
			if take > rem {
				take = rem
			}
			total += e.b * take
			rem -= take
			if rem <= 0 {
				break
			}
		}
	}
	return total
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
