// Package advisor is the public, versioned entry point to the XML
// Index Advisor — the stable API both the command-line tools and the
// xiad server mode are built on. Everything under internal/ is an
// implementation detail; programs embed the advisor through this
// package only.
//
// The shape of the API follows the paper's server mode (§3): the
// advisor lives inside the engine behind a stable interface, workloads
// are opened once into long-lived sessions, and each session serves
// many recommendation requests — different strategies, different disk
// budgets — against the same prepared candidate space and warm what-if
// cache.
//
//	adv, err := advisor.New(cat,
//		advisor.WithStrategy("race"),
//		advisor.WithParallelism(8))
//	sess, err := adv.Open(ctx, w)
//	resp, err := sess.Recommend(ctx, advisor.RecommendRequest{BudgetPages: 512})
//
// Requests and responses are versioned DTOs with stable JSON tags
// (RecommendRequest, RecommendResponse; APIVersion pins the wire
// format), so the same types serve as the library surface and the
// xiad HTTP/JSON wire format. For live progress, RecommendStream
// returns a channel of Events — candidate-space stats, every search
// TraceEvent as it is emitted, and the run's cache/kernel counters —
// terminated by the result or an error.
package advisor

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/sqltype"
	"repro/internal/stats"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Workload is a weighted set of queries and updates to recommend
// indexes for. Build one programmatically (AddQuery/AddInsert/
// AddDelete) or parse the textual workload format with ParseWorkload.
type Workload = workload.Workload

// Catalog is the database catalog an Advisor recommends against.
type Catalog = catalog.Catalog

// ParseWorkload parses the textual workload format (one weighted query
// or update statement per line; see internal/workload).
func ParseWorkload(name, text string) (*Workload, error) {
	return workload.Parse(name, text)
}

// Strategies returns the sorted canonical names of every registered
// search strategy, including the race portfolio.
func Strategies() []string { return search.Names() }

// DefaultStrategy is the strategy used when a request names none: the
// paper's primary algorithm.
func DefaultStrategy() string { return search.Default }

// CanonicalStrategy resolves a strategy name or alias ("greedy",
// "top-down", ...) to its canonical registered name; the error of an
// unknown name enumerates the valid strategies.
func CanonicalStrategy(name string) (string, error) { return search.Canonical(name) }

// Advisor is a configured recommendation service over one catalog. It
// is safe for concurrent use: sessions may be opened and exercised from
// many goroutines, and they share the advisor's what-if engine and its
// memoizing cache.
type Advisor struct {
	cat  *catalog.Catalog
	core *core.Advisor
	cfg  config
}

// New builds an advisor over the catalog. Options are validated
// here — this is the single defaulting/validation path for every
// entry point (CLI flags, server requests, library callers) — and an
// invalid one fails with an *OptionError wrapping ErrInvalidOption.
func New(cat *Catalog, opts ...Option) (*Advisor, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Advisor{cat: cat, core: core.New(cat, cfg.core), cfg: cfg}, nil
}

// Workers is the what-if engine's evaluation parallelism (>= 1).
func (a *Advisor) Workers() int { return a.core.CostEngine().Workers() }

// Resilience reports the costing resilience middleware's circuit-
// breaker state ("closed", "open", "half-open") and its lifetime
// counters. ok is false when the advisor was built without
// WithResilience.
func (a *Advisor) Resilience() (state string, counters ResilienceStats, ok bool) {
	res := a.core.Resilient()
	if res == nil {
		return "", ResilienceStats{}, false
	}
	return res.State().String(), res.ResilienceCounters(), true
}

// Degraded reports whether the advisor is currently degraded: the
// costing circuit breaker is not closed, so uncached what-if
// evaluations fail fast and recommendations may come back best-so-far.
// Always false without WithResilience. The xiad health endpoint
// surfaces this as status "degraded".
func (a *Advisor) Degraded() bool {
	state, _, ok := a.Resilience()
	return ok && state != whatif.BreakerClosed.String()
}

// Strategy is the advisor's default search strategy (canonical name),
// used by requests that do not name one.
func (a *Advisor) Strategy() string { return a.cfg.core.Search.String() }

// BudgetPages is the advisor's default disk budget (0 = unlimited),
// used by requests that do not carry one.
func (a *Advisor) BudgetPages() int64 { return a.cfg.core.DiskBudgetPages }

// Open prepares a session for the workload: the candidate pipeline
// runs once (enumeration, generalization, containment DAG), the
// what-if evaluator is bound and the standalone benefit matrix every
// strategy ranks by is built, so every subsequent Recommend on the
// session — any strategy, any budget, from any goroutine — reuses the
// candidate space, the matrix and the warm cache. The matrix's what-if
// work is Open's, not the first Recommend's: a failure there (an open
// circuit breaker) fails Open.
//
// With WithSnapshotDir, Open first tries to warm-start from the
// workload's snapshot file: a hit skips the pipeline and rebuilds the
// matrix from the snapshot's atoms with no cost-service call, and the
// restored session recommends byte-identically to the one that saved.
// Any miss or mismatch falls back to a cold prepare.
func (a *Advisor) Open(ctx context.Context, w *Workload) (*Session, error) {
	if sess := a.tryRestore(ctx, w); sess != nil {
		return sess, nil
	}
	prep, err := a.core.Prepare(ctx, w)
	if err != nil {
		return nil, err
	}
	return &Session{
		adv:      a,
		prep:     prep,
		name:     w.Name,
		created:  time.Now(),
		snapPath: a.WorkloadSnapshotPath(w),
	}, nil
}

// Recommend is the one-shot convenience path: prepare the workload,
// serve the single request, and release the session. Unlike a session
// Recommend, the response's elapsed time and cache/kernel counters
// cover the whole run, candidate generation included.
func (a *Advisor) Recommend(ctx context.Context, w *Workload, req RecommendRequest) (*RecommendResponse, error) {
	strategy, budgetPages, err := req.validate(a)
	if err != nil {
		return nil, err
	}
	ctx, cancel := a.requestContext(ctx, req)
	defer cancel()
	rec, prep, err := a.core.RecommendFull(ctx, w, core.SearchKind(strategy), budgetPages, core.Observe{Trace: req.IncludeTrace})
	if err != nil {
		return nil, err
	}
	sess := &Session{adv: a, prep: prep, name: w.Name, created: time.Now(), closed: true}
	return sess.response(rec, strategy, budgetPages, req), nil
}

// requestContext applies the effective deadline — the request's
// timeout, falling back to the advisor's WithDeadline — to ctx.
func (a *Advisor) requestContext(ctx context.Context, req RecommendRequest) (context.Context, context.CancelFunc) {
	deadline := a.cfg.deadline
	if req.TimeoutMS > 0 {
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if deadline > 0 {
		return context.WithTimeout(ctx, deadline)
	}
	return ctx, func() {}
}

// EvaluateOn measures a recommended configuration's benefit on another
// workload (the unseen-queries analysis of the demo): total weighted
// cost without indexes, with the configuration, derived entirely from
// the response DTO.
func (a *Advisor) EvaluateOn(ctx context.Context, w *Workload, indexes []Index) (noIdx, withIdx float64, err error) {
	defs, err := a.defsFor(indexes)
	if err != nil {
		return 0, 0, err
	}
	return a.core.EvaluateDefs(ctx, w, defs)
}

// Materialize creates the recommended indexes as real (physical)
// indexes in the catalog, returning their names — the demo's final
// "create the recommended configuration" step. Like EvaluateOn it
// works from the response DTO alone, so it also materializes
// recommendations that crossed a process boundary (the xiad wire).
func (a *Advisor) Materialize(resp *RecommendResponse) ([]string, error) {
	var names []string
	for _, idx := range resp.Indexes {
		p, err := pattern.Parse(idx.Pattern)
		if err != nil {
			return names, fmt.Errorf("advisor: index %s: %w", idx.Name, err)
		}
		ty, err := sqltype.ParseType(idx.Type)
		if err != nil {
			return names, fmt.Errorf("advisor: index %s: %w", idx.Name, err)
		}
		if _, err := a.cat.CreateIndex(idx.Name, idx.Collection, p, ty); err != nil {
			return names, err
		}
		names = append(names, idx.Name)
	}
	return names, nil
}

// defsFor rebuilds virtual index definitions from response DTO entries.
func (a *Advisor) defsFor(indexes []Index) ([]*catalog.IndexDef, error) {
	defs := make([]*catalog.IndexDef, 0, len(indexes))
	byColl := map[string]*stats.Stats{}
	for _, idx := range indexes {
		p, err := pattern.Parse(idx.Pattern)
		if err != nil {
			return nil, fmt.Errorf("advisor: index %s: %w", idx.Name, err)
		}
		ty, err := sqltype.ParseType(idx.Type)
		if err != nil {
			return nil, fmt.Errorf("advisor: index %s: %w", idx.Name, err)
		}
		st := byColl[idx.Collection]
		if st == nil {
			if st, err = a.cat.Stats(idx.Collection); err != nil {
				return nil, err
			}
			byColl[idx.Collection] = st
		}
		defs = append(defs, catalog.VirtualDef(idx.Name, idx.Collection, p, ty, st))
	}
	return defs, nil
}
