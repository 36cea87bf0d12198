package search

import (
	"context"

	"repro/internal/candidate"
)

// eagerGreedy is the reference oracle for greedyHeuristic: the original
// eager marginal scan in serial form. Every round it filters the
// density-ordered candidates by budget and redundancy, then walks the
// eligible prefix re-evaluating config+{c} until the standalone-density
// cutoff says no later candidate can beat the best marginal density
// found. Without Space.InteractionAware it trusts standalone densities
// and re-evaluates nothing. Reclamation follows every addition, exactly
// as in the strategy. Stats.Evals counts the oracle's own evaluations.
func eagerGreedy(ctx context.Context, sp *Space) (*Result, error) {
	ctx, tr := newTracer(ctx, "greedy-eager", sp)
	alone, err := standalone(sp, sp.Candidates)
	if err != nil {
		return nil, err
	}
	var positive []*Candidate
	for _, c := range sp.Candidates {
		if alone[c.ID].Net > 0 {
			positive = append(positive, c)
		}
	}
	remaining := make([]*Candidate, len(positive))
	for k, i := range rankByDensity(positive, func(i int) float64 { return alone[positive[i].ID].Net }) {
		remaining[k] = positive[i]
	}

	width := bitsetWidth(sp.Candidates)
	var config []*Candidate
	covered := candidate.NewBitset(width)
	curEval, err := tr.ev.Evaluate(ctx, nil)
	if err != nil {
		return nil, err
	}
	for {
		pages := PagesOf(config)
		var best *Candidate
		var bestEval *Eval
		bestRatio := 0.0
		for _, c := range remaining {
			if !sp.Fits(pages+c.Pages()) || c.Covers().SubsetOf(covered) {
				continue
			}
			density := ratio(alone[c.ID].Net, c.Pages())
			if !sp.InteractionAware {
				if best == nil || density > bestRatio {
					best, bestRatio = c, density
				}
				continue
			}
			// The marginal benefit of c cannot meaningfully exceed its
			// standalone benefit: stop at the first candidate whose
			// standalone density cannot beat the best marginal found.
			if best != nil && density <= bestRatio {
				break
			}
			evals, err := tr.ev.EvaluateBatch(ctx, config, []*Candidate{c})
			if err != nil {
				return nil, err
			}
			marg := evals[0].Net - curEval.Net
			if r := ratio(marg, c.Pages()); marg > 0 && (best == nil || r > bestRatio) {
				best, bestEval, bestRatio = c, evals[0], r
			}
		}
		if best == nil {
			break
		}
		config = append(config, best)
		best.Covers().OrInto(covered)
		if bestEval == nil {
			if bestEval, err = tr.ev.Evaluate(ctx, config); err != nil {
				return nil, err
			}
		}
		curEval = bestEval
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: best.Key(), Benefit: curEval.Net,
			Pages: PagesOf(config), Covered: covered.Count(), Of: width})

		pruned := config[:0:0]
		for _, c := range config {
			if curEval.Uses(c) {
				pruned = append(pruned, c)
			}
		}
		if len(pruned) != len(config) {
			config = pruned
			if curEval, err = tr.ev.Evaluate(ctx, config); err != nil {
				return nil, err
			}
			covered = candidate.NewBitset(width)
			for _, c := range config {
				c.Covers().OrInto(covered)
			}
		}
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
