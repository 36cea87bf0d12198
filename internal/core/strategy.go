package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
	"repro/internal/xindex"
)

// SearchKind selects the configuration search algorithm (paper §2.3).
// It is a thin alias over the internal/search registry names: any
// registered strategy name is a valid SearchKind, and the constants
// below only name the built-in ones. The zero value selects the
// default strategy (greedy-heuristic).
type SearchKind string

const (
	// SearchGreedyHeuristic is the paper's first algorithm: greedy
	// knapsack augmented with the redundancy bitmap and interaction-
	// aware re-evaluation.
	SearchGreedyHeuristic SearchKind = "greedy-heuristic"
	// SearchTopDown is the paper's second algorithm: root-to-leaf DAG
	// descent that keeps the configuration as general as possible while
	// shrinking it into the budget.
	SearchTopDown SearchKind = "topdown"
	// SearchGreedyBasic is the plain greedy 0/1-knapsack approximation
	// of the relational DB2 advisor [8], kept as the baseline the paper
	// compares its strategies against.
	SearchGreedyBasic SearchKind = "greedy-basic"
	// SearchRace is the portfolio strategy: every registered strategy
	// races concurrently on the shared what-if cache and the best
	// configuration wins.
	SearchRace SearchKind = "race"
)

// String names the search kind (the default strategy for the zero
// value).
func (k SearchKind) String() string {
	if k == "" {
		return search.Default
	}
	return string(k)
}

// Prepared is one advisor run stopped just before configuration search:
// the candidate pipeline has run, the what-if evaluator is bound to the
// workload, and the space's standalone benefit matrix and the
// overtrained configuration's per-query costs are priced. It is
// read-only from then on, so concurrent searches share it without a
// lock. Repeated searches over it — different strategies,
// different budgets via the space's WithBudget — reuse the candidate
// set and the warm what-if cache instead of re-running the whole
// advisor, which is what budget sweeps and strategy comparisons want.
//
// A Prepared is valid until the underlying collections change; it does
// not re-check catalog statistics versions the way Recommend does.
type Prepared struct {
	a     *Advisor
	w     *workload.Workload
	set   *candidate.Set
	ev    *evaluator
	space *search.Space
	// relevance summarizes per-query relevant-candidate counts over the
	// whole candidate space, computed once at Prepare time (no what-if
	// evaluations — the projection predicates alone decide it).
	relevance whatif.RelevanceStats
	// overtrained[qi] is query qi's cost under the overtrained
	// configuration (every basic candidate, ignoring the budget): the
	// most any recommendation can gain, the same for every request.
	overtrained []float64
}

// Prepare runs the candidate pipeline on the workload, binds the
// what-if evaluator, builds the benefit matrix and prices the
// overtrained configuration, returning the reusable search setup. A
// what-if failure while pricing the matrix or the overtrained
// configuration (a cancelled context, an open circuit breaker) fails
// Prepare.
func (a *Advisor) Prepare(ctx context.Context, w *workload.Workload) (*Prepared, error) {
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("core: workload has no queries")
	}
	if err := a.ensureFreshCosts(w); err != nil {
		return nil, err
	}
	pipe, err := a.pipeline()
	if err != nil {
		return nil, err
	}
	set, err := pipe.Run(ctx, w)
	if err != nil {
		return nil, err
	}
	return a.assemble(ctx, w, set)
}

// assemble binds the what-if evaluator, builds the benefit matrix,
// prices the overtrained configuration and builds the search space (and
// with it the search model every strategy ranks by) over
// an already-built candidate set — the tail of Prepare, shared with the
// snapshot-restore path (which arrives with a deserialized set and its
// imported atoms instead of a pipeline run).
func (a *Advisor) assemble(ctx context.Context, w *workload.Workload, set *candidate.Set) (*Prepared, error) {
	ev, err := a.newEvaluator(ctx, w, set.All)
	if err != nil {
		return nil, err
	}
	benefits, err := ev.benefitMatrix(ctx, set.All)
	if err != nil {
		return nil, err
	}
	over, err := ev.eval(ctx, set.Basics)
	if err != nil {
		return nil, err
	}
	sp, err := search.NewSpace(search.Space{
		Candidates:       set.All,
		DAG:              set.DAG,
		BudgetPages:      a.opts.DiskBudgetPages,
		Eval:             search.BoundEvaluator{Bound: ev.bound, Derive: ev.aggregate, Parallel: a.cost.Workers()},
		InteractionAware: a.opts.InteractionAware,
		Benefits:         benefits,
	})
	if err != nil {
		return nil, err
	}
	p := &Prepared{a: a, w: w, set: set, ev: ev, space: sp, overtrained: over.queryCost}
	p.relevance = whatif.NewRelevanceStats(ev.bound.RelevantCounts(defsOfCandidates(set.All)))
	return p, nil
}

// defsOfCandidates extracts the candidates' index definitions.
func defsOfCandidates(cands []*Candidate) []*catalog.IndexDef {
	defs := make([]*catalog.IndexDef, len(cands))
	for i, c := range cands {
		defs[i] = c.Def
	}
	return defs
}

// Workload exposes the workload the session was prepared over.
func (p *Prepared) Workload() *workload.Workload { return p.w }

// Space exposes the prepared search space for direct strategy runs
// (budget sweeps over Space.WithBudget, custom registered strategies).
func (p *Prepared) Space() *search.Space { return p.space }

// Basics exposes the deduplicated basic candidates of the prepared
// space.
func (p *Prepared) Basics() []*Candidate { return p.set.Basics }

// DAG exposes the containment DAG over the prepared candidate space.
func (p *Prepared) DAG() *DAG { return p.set.DAG }

// CandidateStats exposes the candidate pipeline's stats for the
// prepared space.
func (p *Prepared) CandidateStats() candidate.Stats { return p.set.Stats }

// RecommendWith runs one search strategy at one disk budget (0 =
// unlimited) over the prepared space and assembles the full
// recommendation. Its Cache counts exactly the what-if work this call
// caused, even while other calls share the advisor; Cache, Kernel and
// Elapsed cover this search and its assembly, not the shared candidate
// generation.
func (p *Prepared) RecommendWith(ctx context.Context, kind SearchKind, budgetPages int64) (*Recommendation, error) {
	return p.RecommendObserved(ctx, kind, budgetPages, Observe{Trace: true})
}

// Observe says what a recommend reports of its search besides the
// recommendation: the structured trace, and a streaming trace hook.
type Observe struct {
	// Trace keeps the search trace in Recommendation.TraceEvents; without
	// it the search buffers no trace and formats no note an observer
	// does not read.
	Trace bool
	// Events, when non-nil, receives every search TraceEvent, with its
	// note, as it is emitted, before the recommendation is assembled.
	// It may be called concurrently (the race portfolio's members search
	// at once) and must not block for long.
	Events func(search.TraceEvent)
}

// RecommendObserved is RecommendWith reporting what obs asks for of the
// search: Observe{Trace: true} makes it identical to RecommendWith.
// Concurrent calls on one Prepared are safe and each sees only its own
// events.
func (p *Prepared) RecommendObserved(ctx context.Context, kind SearchKind, budgetPages int64,
	obs Observe) (*Recommendation, error) {
	start, kernelBefore := time.Now(), pattern.Stats()
	ctx, tally := whatif.WithTally(ctx)
	return p.recommend(ctx, tally, kind, budgetPages, obs, start, kernelBefore)
}

// recommend searches the prepared space and derives the recommendation
// output: DDL, per-query analysis against the session's overtrained
// costs, the what-if counts of tally (the request's, which ctx
// carries), and the kernel window against the given snapshot.
func (p *Prepared) recommend(ctx context.Context, tally *whatif.Tally, kind SearchKind, budgetPages int64,
	obs Observe, start time.Time, kernelBefore pattern.KernelStats) (*Recommendation, error) {
	strat, err := search.Lookup(string(kind))
	if err != nil {
		return nil, err
	}
	// WithBudget copies the space, so the per-call observer and trace
	// setting never leak into sibling searches on the same Prepared.
	sp := p.space.WithBudget(budgetPages)
	sp.Observer = obs.Events
	sp.NoTrace = !obs.Trace
	res, err := strat.Search(ctx, sp)
	if err != nil {
		return nil, err
	}
	// The search delivered a best-so-far result at an expired deadline;
	// assembling the recommendation below needs one more what-if
	// evaluation (the final configuration), which must not be killed by
	// the deadline that already fired — the whole point was to return
	// something useful at the deadline. Explicit
	// cancellation is not softened: the search itself would have failed,
	// so we never get here with a cancelled context.
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		ctx = context.WithoutCancel(ctx)
	}

	rec := &Recommendation{
		// The result's config may be shared with a portfolio member;
		// copy before sorting.
		Config:      append([]*Candidate(nil), res.Config...),
		Basics:      p.set.Basics,
		DAG:         p.set.DAG,
		Gen:         p.set.Stats,
		TraceEvents: res.Trace,
		Search:      res.Stats,
		Degraded:    res.Degraded,
	}
	if res.Degraded {
		rec.DegradedReason = "what-if cost service unavailable (circuit breaker open); returning the best configuration evaluated before the outage"
	}
	candidate.SortByKey(rec.Config)
	rec.TotalPages = search.PagesOf(rec.Config)

	// A circuit-breaker rejection at assembly is absorbed into a
	// degraded best-so-far recommendation instead of failing the run;
	// any other evaluation error fails it. Normally this evaluation is
	// pure cache hits (the search priced the winning configuration), so
	// this fires only when the breaker opened with atoms still uncached.
	finalEval, err := p.ev.eval(ctx, rec.Config)
	if err != nil {
		if !errors.Is(err, whatif.ErrCircuitOpen) {
			return nil, err
		}
		// Per-query detail is unavailable; fall back to document-scan
		// costs, but keep the search's own pricing of this configuration
		// for the workload aggregates — that is the best-so-far claim the
		// degraded response carries.
		finalEval = p.ev.degradedEval(rec.Config)
		finalEval.QueryBenefit = res.Eval.QueryBenefit
		finalEval.UpdateCost = res.Eval.UpdateCost
		finalEval.Net = res.Eval.Net
		rec.Degraded = true
		rec.DegradedReason = "what-if cost service unavailable (circuit breaker open); per-query costs report the no-index baseline"
	}
	rec.QueryBenefit = finalEval.QueryBenefit
	rec.UpdateCost = finalEval.UpdateCost
	rec.NetBenefit = finalEval.Net

	// Public names: XIA_IDX<i> in config order, used consistently in the
	// DDL and the per-query analysis.
	public := make(map[int]string, len(rec.Config))
	if len(rec.Config) > 0 {
		rec.Names = make([]string, len(rec.Config))
		rec.DDL = make([]string, len(rec.Config))
	}
	for i, c := range rec.Config {
		name := "XIA_IDX" + strconv.Itoa(i+1)
		public[c.ID] = name
		rec.Names[i] = name
		rec.DDL[i] = xindex.DDL(name, c.Def.Collection, c.Def.Pattern, c.Def.Type)
	}
	rec.PerQuery = make([]QueryAnalysis, len(p.w.Queries))
	for qi, e := range p.w.Queries {
		qa := QueryAnalysis{
			ID:              e.Query.ID,
			Text:            e.Query.Text,
			Weight:          e.Weight,
			CostNoIndexes:   p.ev.baseCost[qi],
			CostRecommended: finalEval.queryCost[qi],
			CostOvertrained: p.overtrained[qi],
		}
		for _, id := range finalEval.usedBy[qi] {
			if name, ok := public[id]; ok {
				qa.IndexesUsed = append(qa.IndexesUsed, name)
			}
		}
		sort.Strings(qa.IndexesUsed)
		rec.PerQuery[qi] = qa
	}
	rec.Relevance = p.relevance
	rec.Cache = tally.Stats()
	rec.Kernel = pattern.Stats().Sub(kernelBefore)
	rec.Elapsed = time.Since(start)
	return rec, nil
}
