package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Options configure the advisor. Best-so-far is not an option: a race
// cut off by an expired context deadline returns its best finished
// member, and an open circuit breaker (Resilience) degrades a search
// to the best configuration it had evaluated.
type Options struct {
	// DiskBudgetPages bounds the total size of the recommended
	// configuration; 0 means unlimited.
	DiskBudgetPages int64
	// Search selects the configuration search algorithm.
	Search SearchKind
	// InteractionAware makes greedy search re-evaluate configurations
	// each round instead of trusting standalone benefits (§2.3 "index
	// interaction").
	InteractionAware bool
	// Source is the basic-candidate source (§2.1). nil means the
	// optimizer's Enumerate Indexes EXPLAIN mode, the paper's tightly
	// coupled approach; candidate.SyntacticSource{} is the loosely
	// coupled baseline of the coupling ablation.
	Source candidate.Source
	// Rules is the comma-separated §2.2 generalization rule spec
	// ("lub,leaf,axis", "all", "none"; see candidate.ParseRules). The
	// empty string means the paper's default rules; "none" turns
	// generalization off.
	Rules string

	// Parallelism bounds concurrent what-if query evaluations in the
	// costing engine; 0 means GOMAXPROCS.
	Parallelism int
	// CacheSize caps the number of memoized per-(query, sub-config)
	// evaluation atoms. 0 means the default cap (65536); negative means
	// unlimited. The cache lives for the advisor's lifetime, so
	// unbounded growth is opt-in only.
	CacheSize int

	// Resilience, when non-nil, wraps the cost service in the
	// whatif.ResilientService middleware (per-call timeouts, bounded
	// retries with deterministic jitter, circuit breaker) directly
	// below the memoizing engine — so transient faults the retries
	// absorb are invisible to searches, and cached atoms keep serving
	// while the breaker is open.
	Resilience *whatif.ResilientOptions
	// CostWrapper, when non-nil, wraps the cost service below the
	// resilience middleware (Engine → Resilient → CostWrapper(svc)).
	// It exists for fault injection (whatif.FaultService) in tests,
	// soaks, and `xiad -faults`, and for backend-specific shims.
	CostWrapper func(whatif.CostService) whatif.CostService
}

// DefaultOptions returns the advisor defaults used by the demo tools.
func DefaultOptions() Options {
	return Options{
		Search:           SearchGreedyHeuristic,
		InteractionAware: true,
	}
}

// Advisor recommends XML index configurations for workloads. Candidate
// enumeration uses the query optimizer's Enumerate Indexes EXPLAIN mode;
// all what-if costing goes through the whatif.CostService boundary,
// wrapped in a concurrent memoizing engine.
type Advisor struct {
	cat  *catalog.Catalog
	opt  *optimizer.Optimizer
	cost *whatif.Engine
	opts Options
	// resilient is the costing middleware when Options.Resilience is
	// set; nil otherwise. Its breaker state feeds health reporting.
	resilient *whatif.ResilientService

	// maintPerEntry is the index-maintenance cost per entry, taken from
	// the backing cost model (benefit computation must not reach into
	// the optimizer directly).
	maintPerEntry float64

	// verMu guards catVersions, the per-collection statistics versions
	// the cached what-if costs were computed against. The engine's
	// cache keys carry no catalog version, so the advisor flushes it
	// whenever a workload collection's data has changed.
	verMu       sync.Mutex
	catVersions map[string]int64
}

// New creates an advisor over the catalog. Candidate enumeration and
// what-if costing both go through the in-process optimizer; the cost
// service below the memoizing engine can be wrapped (Options.CostWrapper,
// Options.Resilience).
func New(cat *catalog.Catalog, opts Options) *Advisor {
	opt := optimizer.New(cat)
	var svc whatif.CostService = whatif.NewOptimizerService(opt)
	cacheSize := opts.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = 1 << 16
	case cacheSize < 0:
		cacheSize = 0 // engine semantics: 0 = unlimited
	}
	// Service stack, innermost first: backend → CostWrapper (fault
	// injection, shims) → ResilientService → Engine. Retries live
	// below the engine so transient faults never poison a batch, and
	// the engine's cache keeps serving while the breaker is open.
	if opts.CostWrapper != nil {
		svc = opts.CostWrapper(svc)
	}
	var resilient *whatif.ResilientService
	if opts.Resilience != nil {
		resilient = whatif.NewResilientService(svc, *opts.Resilience)
		svc = resilient
	}
	eng := whatif.NewEngine(svc, whatif.Options{
		Workers:    opts.Parallelism,
		MaxEntries: cacheSize,
	})
	return &Advisor{cat: cat, opt: opt, cost: eng, opts: opts, resilient: resilient,
		maintPerEntry: opt.Cost.MaintPerEntry, catVersions: map[string]int64{}}
}

// ensureFreshCosts flushes the what-if cache if any collection the
// workload touches has changed since the cache was populated, so a
// long-lived advisor never serves costs computed from stale statistics.
func (a *Advisor) ensureFreshCosts(w *workload.Workload) error {
	colls := map[string]bool{}
	for _, e := range w.Queries {
		colls[e.Query.Collection] = true
	}
	for _, u := range w.Updates {
		colls[u.Collection] = true
	}
	a.verMu.Lock()
	defer a.verMu.Unlock()
	// Gather every version before committing any, so an error on one
	// collection cannot record a newer version without the flush that
	// must accompany it.
	cur := make(map[string]int64, len(colls))
	for coll := range colls {
		st, err := a.cat.Stats(coll)
		if err != nil {
			return err
		}
		cur[coll] = st.Version
	}
	stale := false
	for coll, v := range cur {
		if prev, ok := a.catVersions[coll]; ok && prev != v {
			stale = true
		}
		a.catVersions[coll] = v
	}
	if stale {
		a.cost.Flush()
	}
	return nil
}

// Optimizer exposes the advisor's optimizer (shared cost model).
func (a *Advisor) Optimizer() *optimizer.Optimizer { return a.opt }

// CostEngine exposes the advisor's what-if evaluation engine (cache and
// evaluation counters).
func (a *Advisor) CostEngine() *whatif.Engine { return a.cost }

// Resilient exposes the costing resilience middleware, or nil when
// Options.Resilience was not set. Health reporting reads its breaker
// state.
func (a *Advisor) Resilient() *whatif.ResilientService { return a.resilient }

// QueryAnalysis is the per-query cost comparison of the recommendation
// analysis screen (paper Figure 5): original cost, cost under the
// recommended configuration, and cost under the overtrained
// configuration of all basic candidates.
type QueryAnalysis struct {
	ID              string
	Text            string
	Weight          float64
	CostNoIndexes   float64
	CostRecommended float64
	CostOvertrained float64
	IndexesUsed     []string
}

// Recommendation is the advisor's output.
type Recommendation struct {
	// Config is the recommended configuration.
	Config []*Candidate
	// DDL holds one CREATE INDEX statement per recommended index.
	DDL []string
	// Names holds the public index name (XIA_IDX<n>) per recommended
	// index, in Config order — the names used in DDL and in
	// PerQuery.IndexesUsed, exposed so API layers never re-derive the
	// naming scheme.
	Names []string
	// TotalPages is the configuration size.
	TotalPages int64
	// QueryBenefit, UpdateCost, NetBenefit summarize the estimated
	// workload improvement.
	QueryBenefit float64
	UpdateCost   float64
	NetBenefit   float64
	// PerQuery is the recommendation analysis (Figure 5).
	PerQuery []QueryAnalysis
	// Basics and DAG expose the candidate space (Figure 4).
	Basics []*Candidate
	DAG    *DAG
	// Gen holds the candidate pipeline's stats for this run:
	// enumerated/generalized/deduped/pruned counts, per-rule counters,
	// and the pipeline wall time.
	Gen candidate.Stats
	// TraceEvents is the structured search trace (typed events with
	// round, action, candidate key, benefit, pages, and cache counts).
	TraceEvents search.Trace
	// Search holds the strategy's run stats: rounds, wall time, cache
	// counts, and — for the race portfolio — the winner and
	// per-member stats.
	Search search.Stats
	// Relevance summarizes, per workload query, how many candidates of
	// the whole space can serve the query at all (the engine's
	// projection view): the distribution that determines how much of a
	// configuration each per-query what-if call actually prices.
	Relevance whatif.RelevanceStats
	// Cache counts the what-if work this run caused: the engine and the
	// resilience middleware charge it to the run's own tally, so it is
	// exact even while other runs share the Advisor's engine.
	Cache whatif.Stats
	// Kernel is the pattern containment kernel's counter delta for this
	// run (interned patterns, contains/overlaps cache hits and misses).
	// It is a before/after window over the process-wide kernel
	// counters, so it includes the kernel work of any run that
	// overlaps this one.
	Kernel pattern.KernelStats
	// Elapsed is the advisor runtime.
	Elapsed time.Duration
	// Degraded marks a best-so-far recommendation: the what-if backend
	// became unavailable mid-run (circuit breaker open) and the run
	// returned the best fully evaluated configuration instead of
	// failing. DegradedReason says what gave out.
	Degraded       bool
	DegradedReason string
}

// Recommend runs the full index recommendation pipeline on the workload
// with the advisor's default strategy and budget.
func (a *Advisor) Recommend(w *workload.Workload) (*Recommendation, error) {
	rec, _, err := a.RecommendFull(context.Background(), w, a.opts.Search, a.opts.DiskBudgetPages, Observe{Trace: true})
	return rec, err
}

// RecommendFull is the one-shot pipeline with per-call strategy and
// budget: Prepare plus one search, with Elapsed, Cache and Kernel
// covering the whole run (candidate generation included), unlike
// Prepared.RecommendWith, which covers only the search and assembly.
// Cache counts exactly this run's what-if work. obs says what it
// reports of the search, as for Prepared.RecommendObserved. The
// Prepared is returned alongside so callers can keep the warm space for
// follow-up searches.
func (a *Advisor) RecommendFull(ctx context.Context, w *workload.Workload, kind SearchKind, budgetPages int64,
	obs Observe) (*Recommendation, *Prepared, error) {
	start, kernelBefore := time.Now(), pattern.Stats()
	ctx, tally := whatif.WithTally(ctx)
	p, err := a.Prepare(ctx, w)
	if err != nil {
		return nil, nil, err
	}
	rec, err := p.recommend(ctx, tally, kind, budgetPages, obs, start, kernelBefore)
	if err != nil {
		return nil, nil, err
	}
	return rec, p, nil
}

// EvaluateDefs measures an index-definition configuration on a
// workload (the unseen-queries analysis of the demo, Figure 5's "add
// more queries" feature): total weighted cost without indexes and with
// the configuration. It is the hook the public facade uses to cost
// configurations that arrived as DTOs (possibly from another process).
func (a *Advisor) EvaluateDefs(ctx context.Context, w *workload.Workload, defs []*catalog.IndexDef) (noIdx, withIdx float64, err error) {
	if err := a.ensureFreshCosts(w); err != nil {
		return 0, 0, err
	}
	res, err := a.cost.EvaluateConfig(ctx, w.QueryList(), defs)
	if err != nil {
		return 0, 0, err
	}
	for qi, e := range w.Queries {
		noIdx += e.Weight * res.Queries[qi].CostNoIndexes
		withIdx += e.Weight * res.Queries[qi].Cost
	}
	return noIdx, withIdx, nil
}
