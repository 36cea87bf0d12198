package search

import (
	"context"
	"errors"
	"strconv"
)

func init() {
	Register(topDown{})
}

// topDown is the paper's second algorithm: start from the DAG roots
// (the most general candidates, maximal benefit but typically over
// budget) and repeatedly replace the member with the worst benefit
// density by its DAG children, until the configuration fits. Children
// that bring no workload benefit are not added. If an over-budget member
// has no children, it is dropped.
type topDown struct{}

func (topDown) Name() string { return "topdown" }

func (t topDown) Search(ctx context.Context, sp *Space) (*Result, error) {
	if sp.DAG == nil {
		return nil, errors.New("search: topdown needs a containment DAG (Space.DAG is nil)")
	}
	md, err := sp.searchModel()
	if err != nil {
		return nil, err
	}
	ctx, tr := newTracer(ctx, t.Name(), sp)
	alone := md.alone
	// Start configuration: all roots with positive standalone benefit.
	var config []*Candidate
	for _, r := range sp.DAG.Roots {
		if alone[r.ID].Net > 0 {
			config = append(config, r)
		}
	}
	start := TraceEvent{Action: ActionStart, Pages: PagesOf(config)}
	if tr.detailed() {
		start.Note = strconv.Itoa(len(config)) + " DAG roots"
	}
	tr.emit(start)

	inConfig := make([]bool, len(sp.Candidates)) // by candidate ID
	for _, c := range config {
		inConfig[c.ID] = true
	}
	for !sp.Fits(PagesOf(config)) && len(config) > 0 {
		// Victim: the member with the worst standalone net benefit per
		// page (general, large, weakly used indexes go first).
		vi := 0
		worst := ratio(alone[config[0].ID].Net, config[0].Pages())
		for i, c := range config[1:] {
			if r := ratio(alone[c.ID].Net, c.Pages()); r < worst {
				worst, vi = r, i+1
			}
		}
		victim := config[vi]
		config = append(config[:vi], config[vi+1:]...)
		inConfig[victim.ID] = false

		added := 0
		for _, ch := range victim.Children {
			if inConfig[ch.ID] || alone[ch.ID].Net <= 0 {
				continue
			}
			config = append(config, ch)
			inConfig[ch.ID] = true
			added++
		}
		tr.round++
		replace := TraceEvent{Action: ActionReplace, Candidate: victim.Key(), Pages: PagesOf(config)}
		if tr.detailed() {
			replace.Note = strconv.Itoa(added) + " children added"
		}
		tr.emit(replace)
	}

	// The children sum can still exceed the victim's size; the Fits
	// loop handles that by further descents. Finally drop any members
	// the optimizer does not use.
	var lastEval *Eval
	if len(config) > 0 {
		full, err := tr.ev.Evaluate(ctx, config)
		if err != nil {
			// The descent itself never priced the configuration; degrade
			// to it with the zero evaluation rather than overclaiming a
			// benefit nothing measured.
			return tr.fail(err, config, nil)
		}
		lastEval = full
		kept := config[:0:0]
		for _, c := range config {
			if full.Uses(c) {
				kept = append(kept, c)
			} else {
				tr.emit(TraceEvent{Action: ActionDrop, Candidate: c.Key(), Note: "unused"})
			}
		}
		config = kept
	}
	return tr.finish(ctx, config, lastEval)
}
