package search

import (
	"context"

	"repro/internal/candidate"
)

func init() {
	Register(greedyBasic{})
	Register(greedyHeuristic{})
}

// greedyBasic is the plain greedy 0/1-knapsack approximation of the
// relational DB2 advisor [8], kept as the baseline the paper compares
// its strategies against: rank candidates once by standalone net
// benefit per page and add while the budget holds. No redundancy
// detection, no re-evaluation — exactly the weaknesses the paper's
// heuristics address.
type greedyBasic struct{}

func (greedyBasic) Name() string { return "greedy-basic" }

func (g greedyBasic) Search(ctx context.Context, sp *Space) (*Result, error) {
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	ctx, tr := newTracer(ctx, g.Name(), sp)
	alone := md.alone
	var config []*Candidate
	var pages int64
	for _, c := range md.ranked {
		if alone[c.ID].Net <= 0 {
			break
		}
		if !sp.Fits(pages + c.Pages()) {
			tr.emit(TraceEvent{Action: ActionSkip, Candidate: c.Key(), Benefit: alone[c.ID].Net, Note: "over budget"})
			continue
		}
		config = append(config, c)
		pages += c.Pages()
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: c.Key(), Benefit: alone[c.ID].Net, Pages: pages})
	}
	return tr.finish(ctx, config, nil)
}

// greedyHeuristic is the paper's greedy search with heuristics:
//
//   - redundancy bitmap: a candidate whose covered workload patterns add
//     nothing to the patterns already covered is skipped outright;
//   - interaction-aware marginal benefit: each round re-evaluates the
//     configuration with the candidate included (Evaluate Indexes), so
//     overlapping benefits are not double-counted;
//   - reclamation: after each addition, configuration members that the
//     optimizer no longer uses for any workload query are dropped and
//     their space reclaimed.
//
// With Space.InteractionAware the marginal evaluation is the lazy-greedy
// heap (lazy.go), which re-evaluates only candidates whose last-known
// marginal still competes for the top; without it, the search trusts
// standalone benefits (the E10 ablation).
type greedyHeuristic struct{}

func (greedyHeuristic) Name() string { return "greedy-heuristic" }

func (g greedyHeuristic) Search(ctx context.Context, sp *Space) (*Result, error) {
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	ctx, tr := newTracer(ctx, g.Name(), sp)

	// Candidates with no standalone benefit are dropped up front. A
	// candidate useless alone can in principle gain value inside an
	// index-ANDed plan, but its standalone benefit is a tight upper
	// bound in practice and evaluating every (config, candidate) pair
	// without it would be quadratic in optimizer calls. The rest keep
	// the density order, high-density candidates first: the lazy heap's
	// initial order, and the standalone mode's selection order. The
	// order's comparator is total on candidate content, so filtering
	// it is ranking the positive subset.
	alone := md.alone
	var remaining []*Candidate
	for _, c := range md.ranked {
		if alone[c.ID].Net > 0 {
			remaining = append(remaining, c)
		}
	}
	if sp.InteractionAware {
		return g.lazy(ctx, sp, tr, alone, remaining)
	}
	return g.standaloneOnly(ctx, sp, tr, remaining)
}

// standaloneOnly is the interaction-blind form of the heuristic search:
// standalone benefits are trusted, so each round adds the densest
// candidate that passes the budget and redundancy filters — no marginal
// re-evaluation — and prices the grown configuration once, which is
// what reclamation needs.
func (g greedyHeuristic) standaloneOnly(ctx context.Context, sp *Space, tr *tracer,
	remaining []*Candidate) (*Result, error) {
	width := bitsetWidth(sp.Candidates)
	var config []*Candidate
	covered := candidate.NewBitset(width)
	var curEval *Eval
	for {
		pages := PagesOf(config)
		var best *Candidate
		for _, c := range remaining {
			if sp.Fits(pages+c.Pages()) && !c.Covers().SubsetOf(covered) {
				best = c
				break
			}
		}
		if best == nil {
			break
		}
		config = append(config, best)
		best.Covers().OrInto(covered)
		bestEval, err := tr.ev.Evaluate(ctx, config)
		if err != nil {
			// The newest member was never evaluated; degrade to the
			// configuration the last evaluation priced.
			return tr.fail(err, config[:len(config)-1], curEval)
		}
		curEval = bestEval
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: best.Key(), Benefit: curEval.Net,
			Pages: PagesOf(config), Covered: covered.Count(), Of: width})

		if pruned := reclaim(tr, config, curEval); len(pruned) != len(config) {
			config = pruned
			curEval, err = tr.ev.Evaluate(ctx, config)
			if err != nil {
				// Reclaimed members were unused, so the pre-prune
				// evaluation still prices this configuration.
				return tr.fail(err, config, bestEval)
			}
			covered = coverage(width, config)
		}
		// Remove the chosen candidate from further consideration.
		rest := remaining[:0:0]
		for _, c := range remaining {
			if c != best {
				rest = append(rest, c)
			}
		}
		remaining = rest
	}
	return tr.finish(ctx, config, curEval)
}

// reclaim returns the members of config that some plan uses under ev,
// emitting an ActionReclaim event for each one it drops: config itself
// when every member is used, else a new slice.
func reclaim(tr *tracer, config []*Candidate, ev *Eval) []*Candidate {
	var pruned []*Candidate
	for i, c := range config {
		switch {
		case !ev.Uses(c):
			if pruned == nil {
				pruned = append(make([]*Candidate, 0, len(config)-1), config[:i]...)
			}
			tr.emit(TraceEvent{Action: ActionReclaim, Candidate: c.Key(), Note: "unused under current config"})
		case pruned != nil:
			pruned = append(pruned, c)
		}
	}
	if pruned == nil {
		return config
	}
	return pruned
}

// coverage is the union of the configuration's covered basic patterns.
func coverage(width int, config []*Candidate) candidate.Bitset {
	covered := candidate.NewBitset(width)
	for _, c := range config {
		c.Covers().OrInto(covered)
	}
	return covered
}
