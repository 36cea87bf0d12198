// Package search is the advisor's configuration-search layer (paper
// §2.3): given a candidate Space — the enumerated/generalized candidate
// set, its containment DAG, a disk budget, and a what-if cost Evaluator
// — a Strategy picks the index configuration to recommend.
//
// Strategies are pluggable: the three paper algorithms (plain greedy
// knapsack, greedy with redundancy/interaction heuristics, top-down DAG
// descent) and a CoPhy-style LP relaxation ("lp") register themselves in
// a name-keyed registry, and a "race" strategy runs the whole portfolio
// concurrently on the shared what-if cache and returns the best
// configuration. Each strategy has exactly one search path: the
// interaction-aware greedy heuristic always uses the lazy-greedy heap,
// and every race member runs to completion. External strategies can be
// added with Register without touching internal/core.
//
// Every search produces a structured trace (typed TraceEvents rendered
// to text or JSON, at most DefaultTraceCap buffered per strategy) and
// per-strategy stats (rounds, wall time, what-if cache counts). Each
// strategy evaluates under a context carrying its own whatif.Tally,
// which the what-if engine charges directly, so the counts are exact
// even while other searches share the engine. A Space can be
// re-budgeted with WithBudget so budget sweeps reuse the candidate set
// and the warm cache instead of re-running the whole advisor per
// budget point.
//
// The search contract is one shape for every strategy. A Space carries
// its benefit model (Space.Benefits), which lp requires. Strategies
// price configurations only through their tracer's counting evaluator,
// which batches through the Evaluator's EvaluateBatch when it has one
// (BoundEvaluator, the adaptor over a whatif.Bound, does) and fans out
// otherwise. And every strategy fails through one exit: an open
// circuit breaker becomes a Degraded best-so-far result, and any other
// error fails the search. Best-so-far holds at a deadline too: a race
// cut off by an expired deadline returns its best finished member.
package search

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/whatif"
)

// Candidate is one candidate index in the search space, produced by the
// internal/candidate pipeline.
type Candidate = candidate.Candidate

// DAG is the candidate containment DAG (paper §2.2, Figure 4).
type DAG = candidate.DAG

// Eval is one configuration evaluation as the search sees it: the
// workload-level aggregates the strategies rank configurations by.
type Eval struct {
	// QueryBenefit is the weighted query benefit (no update cost).
	QueryBenefit float64
	// UpdateCost is the weighted maintenance cost of the configuration.
	UpdateCost float64
	// Net is QueryBenefit - UpdateCost.
	Net float64
	// Used is the set of candidate IDs used by at least one query plan.
	Used map[int]bool
}

// Evaluator prices candidate configurations. Implementations must be
// safe for concurrent use: strategies evaluate many configurations at
// once, and the race strategy runs whole searches concurrently.
type Evaluator interface {
	// Evaluate returns the workload evaluation of the configuration.
	Evaluate(ctx context.Context, cfg []*Candidate) (*Eval, error)
	// Workers is the evaluator's useful concurrency (>= 1); the
	// per-candidate fan-out bounds its concurrent calls by it.
	Workers() int
}

// BatchEvaluator is the optional fast path of an Evaluator: evaluate
// base+{c} for a whole burst of candidates as one unit, so the backend
// can dispatch the burst to its worker pool in one call instead of
// paying per-candidate call and synchronization overhead. Results are
// in cands order. Strategies reach it only through their tracer's
// countingEvaluator, which falls back to per-candidate fan-out when
// the evaluator does not implement it.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(ctx context.Context, base, cands []*Candidate) ([]*Eval, error)
}

// countingEvaluator wraps a strategy's evaluator with an exact call
// counter (one per configuration priced). Every strategy evaluates
// through its tracer's countingEvaluator, which is what makes
// Stats.Evals per-strategy exact where the shared cache counters are
// not.
type countingEvaluator struct {
	inner Evaluator
	calls atomic.Int64
}

func (c *countingEvaluator) Evaluate(ctx context.Context, cfg []*Candidate) (*Eval, error) {
	c.calls.Add(1)
	return c.inner.Evaluate(ctx, cfg)
}

func (c *countingEvaluator) Workers() int { return c.inner.Workers() }

// EvaluateBatch counts the whole burst and forwards it to the inner
// evaluator's batch entry point when it has one, else to the shared
// fan-out. It is the only way strategies price a burst.
func (c *countingEvaluator) EvaluateBatch(ctx context.Context, base, cands []*Candidate) ([]*Eval, error) {
	c.calls.Add(int64(len(cands)))
	if be, ok := c.inner.(BatchEvaluator); ok {
		return be.EvaluateBatch(ctx, base, cands)
	}
	return fanOutEach(ctx, c.inner, base, cands)
}

// BoundEvaluator is the Evaluator over a what-if Bound: the engine
// costs every bound query under a configuration, and Derive folds
// those per-query costs into the workload evaluation strategies rank
// by. A burst of base+{c} configurations goes to the engine as one
// extension batch, which keys each candidate's atoms only for the
// queries it can serve. It is safe for concurrent use when Derive is.
type BoundEvaluator struct {
	Bound *whatif.Bound
	// Derive turns the engine's per-query costs of cfg into its
	// workload evaluation.
	Derive func(res *whatif.ConfigEval, cfg []*Candidate) Eval
	// Parallel is the useful concurrency Workers reports.
	Parallel int
}

// Evaluate prices one configuration through the engine.
func (b BoundEvaluator) Evaluate(ctx context.Context, cfg []*Candidate) (*Eval, error) {
	defs := make([]*catalog.IndexDef, len(cfg))
	for i, c := range cfg {
		defs[i] = c.Def
	}
	res, err := b.Bound.EvaluateConfig(ctx, defs)
	if err != nil {
		return nil, err
	}
	e := b.Derive(res, cfg)
	return &e, nil
}

// EvaluateBatch prices base+{c} for every candidate in one engine
// dispatch. Results are in cands order.
func (b BoundEvaluator) EvaluateBatch(ctx context.Context, base, cands []*Candidate) ([]*Eval, error) {
	defs := make([]*catalog.IndexDef, 0, len(base)+len(cands))
	for _, c := range base {
		defs = append(defs, c.Def)
	}
	for _, c := range cands {
		defs = append(defs, c.Def)
	}
	results, err := b.Bound.EvaluateExtensions(ctx, defs[:len(base)], defs[len(base):])
	if err != nil {
		return nil, err
	}
	// Derive sees each configuration base+{c}: one backing array holds
	// them all.
	w := len(base) + 1
	cfgs := make([]*Candidate, 0, len(cands)*w)
	evals := make([]Eval, len(cands))
	out := make([]*Eval, len(cands))
	for i, res := range results {
		cfgs = append(append(cfgs, base...), cands[i])
		evals[i] = b.Derive(res, cfgs[i*w:(i+1)*w:(i+1)*w])
		out[i] = &evals[i]
	}
	return out, nil
}

// Workers reports Parallel.
func (b BoundEvaluator) Workers() int { return b.Parallel }

// Counters are the what-if cache counts of one search, threaded into
// traces and stats so every search step carries its cache cost.
type Counters struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evaluations int64 `json:"evaluations"`
}

// Space is one configuration-search problem: the candidate set to
// choose from, the containment DAG over it, the disk budget, and the
// cost evaluator. A Space is immutable once built; WithBudget derives
// re-budgeted views that share the candidates and the evaluator (and
// therefore the what-if cache), which is what makes budget sweeps and
// portfolio racing cheap.
type Space struct {
	// Candidates is every candidate (basic and generalized), with dense
	// IDs from 0 as produced by the candidate pipeline.
	Candidates []*Candidate
	// DAG is the containment DAG over Candidates (top-down search
	// descends it root to leaf).
	DAG *DAG
	// BudgetPages bounds the configuration size; 0 means unlimited.
	BudgetPages int64
	// Eval prices configurations (the what-if service boundary).
	Eval Evaluator
	// InteractionAware makes greedy search re-evaluate configurations
	// each round instead of trusting standalone benefits (§2.3 "index
	// interaction").
	InteractionAware bool
	// Benefits produces the standalone per-(query, candidate) benefit
	// matrix, rows aligned with Candidates order: the decomposed
	// benefit model the CoPhy-style lp strategy optimizes over. lp
	// requires it and fails on a space without one; the other
	// strategies ignore it. Producers memoize: the first call may cost
	// one standalone what-if evaluation per candidate (deduplicated
	// through the engine's atom cache), repeat calls are free.
	Benefits func(ctx context.Context) (*whatif.BenefitMatrix, error)
	// Observer, when non-nil, receives every trace event as it is
	// emitted — the streaming-progress hook. Events still accumulate in
	// the result's Trace. The observer may be called concurrently (the
	// race portfolio's members search at once) and must not block for
	// long: strategies emit synchronously on their search path.
	Observer func(TraceEvent)
}

// WithBudget returns a view of the space under a different disk budget,
// sharing the candidates, DAG, and evaluator (and its cache).
func (s *Space) WithBudget(pages int64) *Space {
	c := *s
	c.BudgetPages = pages
	return &c
}

// Fits reports whether a configuration of the given size fits the
// budget (0 = unlimited).
func (s *Space) Fits(pages int64) bool {
	return s.BudgetPages <= 0 || pages <= s.BudgetPages
}

// Result is one strategy's chosen configuration plus its evaluation,
// structured trace, and run stats.
type Result struct {
	// Strategy is the canonical name of the strategy that produced the
	// result.
	Strategy string
	// Config is the chosen configuration.
	Config []*Candidate
	// Pages is the configuration size.
	Pages int64
	// Eval is the final evaluation of Config.
	Eval *Eval
	// Trace is the structured search trace.
	Trace Trace
	// Stats summarizes the run (rounds, wall time, cache counts).
	Stats Stats
	// Members holds the per-member results of a portfolio run (the
	// race strategy); nil for plain strategies.
	Members []*Result
	// Degraded marks a best-so-far result returned because the what-if
	// backend became unavailable mid-search (circuit breaker open).
	// Config is whatever
	// the strategy had fully built when the backend went away; Eval is
	// its last complete evaluation (possibly the empty configuration's).
	Degraded bool
}

// Strategy is one pluggable configuration-search algorithm.
type Strategy interface {
	// Name is the canonical registry name.
	Name() string
	// Search picks a configuration from the space. Implementations
	// must honor ctx cancellation and the space's budget.
	Search(ctx context.Context, sp *Space) (*Result, error)
}

// PagesOf sums the candidates' estimated sizes.
func PagesOf(cfg []*Candidate) int64 {
	var t int64
	for _, c := range cfg {
		t += c.Pages()
	}
	return t
}

// ratio is the benefit density (benefit per page) used to rank
// candidates; zero-page candidates count as one page.
func ratio(benefit float64, pages int64) float64 {
	if pages <= 0 {
		pages = 1
	}
	return benefit / float64(pages)
}

// bitsetWidth is the basic-candidate count: the width of the covers
// bitmaps (redundancy heuristic).
func bitsetWidth(cands []*Candidate) int {
	n := 0
	for _, c := range cands {
		if c.Basic {
			n++
		}
	}
	return n
}

// rankByDensity orders candidates by standalone net benefit per page,
// densest first. Equal densities tie-break on candidate content only —
// the more specific pattern first (fewest descendant axes, then fewest
// wildcards: indexing `/a/*/x` is a safer bet than `//x` at the same
// density), then the candidate key — never on ID assignment or input
// order, so the ranking and every recommendation derived from it are
// byte-stable across map iteration order and pipeline internals.
func rankByDensity(cands []*Candidate, alone map[int]*Eval) []*Candidate {
	// Each candidate's density and key are computed once, not per
	// comparison.
	type ranked struct {
		c       *Candidate
		density float64
		key     string
	}
	rs := make([]ranked, len(cands))
	for i, c := range cands {
		rs[i] = ranked{c: c, density: ratio(alone[c.ID].Net, c.Pages()), key: c.Key()}
	}
	sort.Slice(rs, func(i, j int) bool {
		a, b := &rs[i], &rs[j]
		if a.density != b.density {
			return a.density > b.density
		}
		if da, db := a.c.Pattern.DescendantCount(), b.c.Pattern.DescendantCount(); da != db {
			return da < db
		}
		if wa, wb := a.c.Pattern.WildcardCount(), b.c.Pattern.WildcardCount(); wa != wb {
			return wa < wb
		}
		return a.key < b.key
	})
	order := make([]*Candidate, len(rs))
	for i := range rs {
		order[i] = rs[i].c
	}
	return order
}

// fanOutEach is countingEvaluator's batch path for an evaluator
// without one: one Evaluate call per candidate, concurrently, bounded
// by the evaluator's worker count.
func fanOutEach(ctx context.Context, ev Evaluator, base, cands []*Candidate) ([]*Eval, error) {
	out := make([]*Eval, len(cands))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, ev.Workers())
	for i, c := range cands {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		cfg := make([]*Candidate, 0, len(base)+1)
		cfg = append(append(cfg, base...), c)
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cfg []*Candidate) {
			defer wg.Done()
			defer func() { <-sem }()
			e, err := ev.Evaluate(ctx, cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			out[i] = e
		}(i, cfg)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// standalone returns each candidate's evaluation alone, keyed by
// candidate ID, priced as one burst.
func standalone(ctx context.Context, ev *countingEvaluator, cands []*Candidate) (map[int]*Eval, error) {
	evals, err := ev.EvaluateBatch(ctx, nil, cands)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*Eval, len(cands))
	for i, c := range cands {
		out[c.ID] = evals[i]
	}
	return out, nil
}

// fail is every strategy's one failure exit. When err is the circuit
// breaker cutting the what-if backend off — a transient infrastructure
// condition, not a wrong answer — the search answers with a degraded
// best-so-far result: config is what the strategy had fully built,
// last its last complete evaluation (nil means the empty
// configuration's zero evaluation), and the Degraded flag flows
// through the race winner pick up into the v1 response. Any other
// error fails the search.
func (t *tracer) fail(err error, config []*Candidate, last *Eval) (*Result, error) {
	if !errors.Is(err, whatif.ErrCircuitOpen) {
		return nil, err
	}
	if last == nil {
		last = &Eval{}
	}
	t.degraded = true
	t.emit(TraceEvent{Action: ActionDegraded, Benefit: last.Net, Pages: PagesOf(config),
		Note: fmt.Sprintf("best-so-far: %v", err)})
	return &Result{
		Strategy: t.strategy,
		Config:   config,
		Pages:    PagesOf(config),
		Eval:     last,
		Trace:    t.events,
		Stats:    t.stats(),
		Degraded: true,
	}, nil
}

// finish evaluates the final configuration and assembles the Result.
// last is the last complete evaluation the strategy holds (nil when it
// has none): the failure exit falls back to it if the final evaluation
// itself fails.
func (t *tracer) finish(ctx context.Context, config []*Candidate, last *Eval) (*Result, error) {
	final, err := t.ev.Evaluate(ctx, config)
	if err != nil {
		return t.fail(err, config, last)
	}
	return &Result{
		Strategy: t.strategy,
		Config:   config,
		Pages:    PagesOf(config),
		Eval:     final,
		Trace:    t.events,
		Stats:    t.stats(),
	}, nil
}
