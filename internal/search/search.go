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
// Every search keeps a structured trace (typed TraceEvents rendered to
// text or JSON, at most DefaultTraceCap buffered per strategy) unless
// its space sets NoTrace, and reports per-strategy stats (rounds, wall
// time, what-if cache counts) either way. Each strategy evaluates under
// a context carrying its own whatif.Tally, which the what-if engine
// charges directly, so the counts are exact even while other searches
// share the engine. A Space can be re-budgeted with WithBudget so
// budget sweeps reuse the candidate set, its search model and the warm
// cache instead of re-running the whole advisor per budget point.
//
// The search contract is one shape for every strategy. A Space carries
// its benefit model (Space.Benefits), the only standalone pricing: a
// matrix its producer builds once, with the space, so no search builds
// or waits for it. NewSpace derives from it, also once, the tables every
// strategy ranks by: the standalone evaluations, the density order and
// the lp relaxation. Every strategy requires them, and none prices a
// candidate alone through the evaluator. Strategies price
// configurations only through their tracer's counting evaluator, which
// batches through the Evaluator's EvaluateBatch when it has one
// (BoundEvaluator, the adaptor over a whatif.Bound, does) and fans out
// otherwise; plan usage is read on demand (Eval.Uses), only where a
// strategy drops unused members. And every strategy fails through one
// exit: an open circuit breaker becomes a Degraded best-so-far result,
// and any other error fails the search. Best-so-far holds at a deadline
// too: a race cut off by an expired deadline returns its best finished
// member.
package search

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/lp"
	"repro/internal/whatif"
)

// Candidate is one candidate index in the search space, produced by the
// internal/candidate pipeline.
type Candidate = candidate.Candidate

// DAG is the candidate containment DAG (paper §2.2, Figure 4).
type DAG = candidate.DAG

// Eval is one configuration evaluation as the search sees it: the
// workload-level aggregates the strategies rank configurations by, and
// the plan usage reclamation reads.
type Eval struct {
	// QueryBenefit is the weighted query benefit (no update cost).
	QueryBenefit float64
	// UpdateCost is the weighted maintenance cost of the configuration.
	UpdateCost float64
	// Net is QueryBenefit - UpdateCost.
	Net float64
	// Usage resolves which members of the evaluated configuration some
	// query plan uses; nil means none is. Read it through Uses.
	Usage Usage
}

// Usage answers, on demand, whether some query plan of an evaluated
// configuration uses its member c. Every evaluator represents plan
// usage this way, so an evaluation costs no usage work until a strategy
// reclaims. Implementations hold no configuration slice a strategy can
// later change, and are safe for concurrent reads.
type Usage interface{ Uses(c *Candidate) bool }

// Uses reports whether some query plan of the evaluated configuration
// uses its member c.
func (e *Eval) Uses(c *Candidate) bool { return e.Usage != nil && e.Usage.Uses(c) }

// uniformUsage gives every member the same answer: a one-member
// configuration's usage is whether its lone member is used.
type uniformUsage bool

func (u uniformUsage) Uses(*Candidate) bool { return bool(u) }

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
	// workload evaluation. It must not retain cfg.
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
	// Derive retains no configuration, so every base+{c} fills one
	// buffer of its own.
	cfg := append(slices.Clip(base), nil)
	evals := make([]Eval, len(cands))
	out := make([]*Eval, len(cands))
	for i, res := range results {
		cfg[len(base)] = cands[i]
		evals[i] = b.Derive(res, cfg)
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
// cost evaluator. Build one with NewSpace, which derives the search
// model every strategy ranks by. A Space is immutable once built;
// WithBudget derives re-budgeted views that share the candidates, the
// search model and the evaluator (and therefore the what-if cache),
// which is what makes budget sweeps and portfolio racing cheap.
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
	// Benefits is the standalone per-(query, candidate) benefit matrix,
	// rows aligned with Candidates order: the decomposed benefit model
	// the paper strategies rank by and the CoPhy-style lp strategy
	// optimizes over. Every strategy requires it and fails on a space
	// without one. The producer builds it once, with the space, and it
	// is read-only from then on.
	Benefits *whatif.BenefitMatrix
	// Observer, when non-nil, receives every trace event as it is
	// emitted, with its note — the streaming-progress hook. It sees the
	// full stream whether or not the trace is kept (NoTrace) and however
	// long it grows (DefaultTraceCap bounds only the kept trace). The
	// observer may be called concurrently (the race portfolio's members
	// search at once) and must not block for long: strategies emit
	// synchronously on their search path.
	Observer func(TraceEvent)
	// NoTrace drops the search trace: results carry no Trace, and no
	// event is buffered or, without an Observer, even formatted.
	// Stats.Truncated still counts what a kept trace would have dropped.
	// The zero value keeps the trace.
	NoTrace bool

	// model holds the tables NewSpace derives from Candidates, DAG and
	// Benefits; WithBudget views share it.
	model *model
}

// model is a space's search model: the tables every strategy ranks by,
// derived from the space's candidates, DAG and benefit matrix once, by
// NewSpace, and read-only from then on, so concurrent searches over
// WithBudget views share it without a lock.
type model struct {
	// cands, dag and benefits are what the tables were built from; a
	// view whose fields no longer match them has no model.
	cands    []*Candidate
	dag      *DAG
	benefits *whatif.BenefitMatrix
	// alone is every candidate's standalone evaluation, by candidate ID
	// (see standalone).
	alone []Eval
	// ranked is cands in standalone net density order, densest first
	// (see rankByDensity).
	ranked []*Candidate
	// lp is the lp strategy's relaxation over ranked, with no budget.
	lp *lp.Problem
}

// NewSpace validates the space and builds its search model: the
// standalone evaluations by candidate ID, the density order over
// Candidates, and the budget-free lp relaxation. The benefit matrix
// must have one row per candidate (and Private and Update, when set,
// one entry per candidate); candidate IDs must be dense, and every
// candidate and DAG node must be the space's candidate under its ID.
// Strategies reject a space not built this way, or a view whose
// Candidates, DAG or Benefits were replaced after it was built.
func NewSpace(s Space) (*Space, error) {
	m, err := benefitMatrix(&s)
	if err != nil {
		return nil, err
	}
	lookups := [][]*Candidate{s.Candidates}
	if s.DAG != nil {
		lookups = append(lookups, s.DAG.Nodes)
	}
	alone, err := standalone(&s, lookups...)
	if err != nil {
		return nil, err
	}
	order := rankByDensity(s.Candidates, func(i int) float64 { return alone[s.Candidates[i].ID].Net })
	md := &model{cands: s.Candidates, dag: s.DAG, benefits: m, alone: alone,
		ranked: make([]*Candidate, len(order)), lp: lpProblem(&s, m, order)}
	for k, i := range order {
		md.ranked[k] = s.Candidates[i]
	}
	md.lp.Budget = 0
	s.model = md
	return &s, nil
}

// searchModel returns the space's search model, failing on a space
// whose benefit matrix is missing or misshapen, or that has no model
// built for its current candidates, DAG and matrix.
func (s *Space) searchModel() (*model, error) {
	if _, err := benefitMatrix(s); err != nil {
		return nil, err
	}
	md := s.model
	if md == nil || md.benefits != s.Benefits || md.dag != s.DAG || len(md.cands) != len(s.Candidates) ||
		(len(md.cands) > 0 && &md.cands[0] != &s.Candidates[0]) {
		return nil, errors.New("search: the space has no search model for its candidates, DAG and benefit matrix (build it with NewSpace)")
	}
	return md, nil
}

// problem is the lp relaxation under the given budget: a copy of the
// model's header sharing its read-only rows and groups.
func (md *model) problem(budget int64) *lp.Problem {
	p := *md.lp
	p.Budget = budget
	return &p
}

// WithBudget returns a view of the space under a different disk budget,
// sharing the candidates, DAG, search model and evaluator (and its
// cache).
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

// rankByDensity returns the positions of cands ordered by standalone
// net benefit per page, densest first; net(i) is cands[i]'s net. Equal
// densities tie-break on candidate content only — the more specific
// pattern first (fewest descendant axes, then fewest wildcards:
// indexing `/a/*/x` is a safer bet than `//x` at the same density),
// then the candidate key — never on ID assignment or input order, so
// the ranking and every recommendation derived from it are byte-stable
// across map iteration order and pipeline internals. Densities and
// pattern counts are computed once; keys only to break full ties.
func rankByDensity(cands []*Candidate, net func(i int) float64) []int {
	type keyed struct {
		i           int
		density     float64
		desc, wilds int
	}
	ks := make([]keyed, len(cands))
	for i, c := range cands {
		ks[i] = keyed{i: i, density: ratio(net(i), c.Pages()),
			desc: c.Pattern.DescendantCount(), wilds: c.Pattern.WildcardCount()}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Or(cmp.Compare(b.density, a.density), cmp.Compare(a.desc, b.desc), cmp.Compare(a.wilds, b.wilds)); c != 0 {
			return c
		}
		return strings.Compare(cands[a.i].Key(), cands[b.i].Key())
	})
	order := make([]int, len(ks))
	for k, e := range ks {
		order[k] = e.i
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

// standalone derives every candidate's evaluation alone from the
// space's benefit matrix, in a table indexed by candidate ID: the
// matrix's standalone benefit and update cost, their difference as the
// net, and the candidate used iff its standalone benefit is positive.
// Matrix row i is Space.Candidates[i]. Candidate IDs must be dense, and
// each candidate of every list in lookups — the candidates strategies
// look up, such as the DAG nodes — must be the space's candidate under
// its ID. It spends no what-if evaluation. NewSpace builds the table
// once per space.
func standalone(sp *Space, lookups ...[]*Candidate) ([]Eval, error) {
	m, err := benefitMatrix(sp)
	if err != nil {
		return nil, err
	}
	alone := make([]Eval, len(sp.Candidates))
	byID := make([]*Candidate, len(sp.Candidates))
	for i, c := range sp.Candidates {
		if c.ID >= 0 && c.ID < len(byID) {
			qb, uc := m.StandaloneBenefit(i), m.UpdateCost(i)
			alone[c.ID], byID[c.ID] = Eval{QueryBenefit: qb, UpdateCost: uc, Net: qb - uc, Usage: uniformUsage(qb > 0)}, c
		}
	}
	for _, cands := range lookups {
		for _, c := range cands {
			if c.ID < 0 || c.ID >= len(byID) || byID[c.ID] != c {
				return nil, fmt.Errorf("search: candidate %s: ID %d does not index it among the space's %d candidates", c.Key(), c.ID, len(byID))
			}
		}
	}
	return alone, nil
}

// benefitMatrix returns the space's benefit matrix, which every strategy
// requires. The matrix must have one row per candidate, and Private and
// Update, when set, one entry per candidate; any other shape is an
// error.
func benefitMatrix(sp *Space) (*whatif.BenefitMatrix, error) {
	m := sp.Benefits
	switch n := len(sp.Candidates); {
	case m == nil:
		return nil, errors.New("search: the space has no benefit model (Space.Benefits is nil)")
	case len(m.Rows) != n:
		return nil, fmt.Errorf("search: benefit matrix has %d rows for %d candidates", len(m.Rows), n)
	case m.Private != nil && len(m.Private) != n:
		return nil, fmt.Errorf("search: benefit matrix has %d private benefits for %d candidates", len(m.Private), n)
	case m.Update != nil && len(m.Update) != n:
		return nil, fmt.Errorf("search: benefit matrix has %d update costs for %d candidates", len(m.Update), n)
	}
	return m, nil
}

// fail is every strategy's one failure exit. When err is the circuit
// breaker cutting the what-if backend off — a transient infrastructure
// condition, not a wrong answer — the search answers with a degraded
// best-so-far result: config is what the strategy had fully built,
// last its last complete evaluation (nil means the empty
// configuration's zero evaluation), copied into the result, and the
// Degraded flag flows through the race winner pick up into the v1
// response. Any other error fails the search.
func (t *tracer) fail(err error, config []*Candidate, last *Eval) (*Result, error) {
	if !errors.Is(err, whatif.ErrCircuitOpen) {
		return nil, err
	}
	// The result owns its evaluation: last may be a row of the space's
	// shared standalone table.
	final := &Eval{}
	if last != nil {
		*final = *last
	}
	t.degraded = true
	e := TraceEvent{Action: ActionDegraded, Benefit: final.Net, Pages: PagesOf(config)}
	if t.detailed() {
		e.Note = "best-so-far: " + err.Error()
	}
	t.emit(e)
	return &Result{
		Strategy: t.strategy,
		Config:   config,
		Pages:    PagesOf(config),
		Eval:     final,
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
