package advisor

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/candidate"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/whatif"
)

// CostService is the what-if costing contract the advisor's engine
// evaluates queries through; WithCostWrapper interposes on it.
type CostService = whatif.CostService

// ResilienceOptions tune the costing resilience middleware
// (WithResilience): per-call timeout, bounded retries with
// deterministic jitter, and the circuit breaker. The zero value means
// production defaults for every knob.
type ResilienceOptions = whatif.ResilientOptions

// ErrInvalidOption is the sentinel every option-validation failure
// wraps; match with errors.Is.
var ErrInvalidOption = errors.New("advisor: invalid option")

// OptionError reports one invalid option value. It unwraps to
// ErrInvalidOption.
type OptionError struct {
	// Option names the offending option constructor, e.g.
	// "WithBudgetPages".
	Option string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("advisor: %s(%v): %s", e.Option, e.Value, e.Reason)
}

func (e *OptionError) Unwrap() error { return ErrInvalidOption }

// config is the advisor's resolved configuration: the core options plus
// the facade-level request defaults.
type config struct {
	core core.Options
	// budgetKB is the default budget when WithBudgetKB set it last
	// (0 otherwise); validate range-checks it and converts it to pages.
	budgetKB    int64
	deadline    time.Duration
	faultSpec   string
	snapshotDir string
}

func defaultConfig() config {
	return config{core: core.DefaultOptions()}
}

// Option configures an Advisor. Options record values; New validates
// the assembled configuration in one place.
type Option func(*config)

// WithBudgetPages sets the default disk budget in pages (0 =
// unlimited); individual requests may override it.
func WithBudgetPages(pages int64) Option {
	return func(c *config) { c.core.DiskBudgetPages, c.budgetKB = pages, 0 }
}

// WithBudgetKB sets the default disk budget in kilobytes, converted to
// pages (rounding up to one page for any positive budget). Budgets
// whose byte count overflows an int64 are rejected.
func WithBudgetKB(kb int64) Option {
	return func(c *config) { c.core.DiskBudgetPages, c.budgetKB = 0, kb }
}

// maxBudgetKB is the largest budget in kilobytes whose byte count fits
// in an int64.
const maxBudgetKB = math.MaxInt64 / 1024

// budgetKBToPages converts a KB budget in [0, maxBudgetKB] to pages;
// any positive budget is at least one page, and 0 means unlimited.
func budgetKBToPages(kb int64) int64 {
	if kb == 0 {
		return 0
	}
	pages := (kb * 1024) / store.DefaultPageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// WithStrategy sets the default search strategy by name or alias
// ("greedy-heuristic", "topdown", "race", ...); individual requests may
// override it. See Strategies for the valid names.
func WithStrategy(name string) Option {
	return func(c *config) { c.core.Search = core.SearchKind(name) }
}

// WithRules replaces the default generalization rule set (§2.2) with a
// comma-separated spec ("lub,leaf,axis", "all", "none"). The empty
// string keeps the paper's default rules; "none" turns generalization
// off.
func WithRules(spec string) Option {
	return func(c *config) { c.core.Rules = spec }
}

// WithInteractionAware toggles interaction-aware greedy search (§2.3):
// re-evaluate configurations each round instead of trusting standalone
// benefits.
func WithInteractionAware(on bool) Option {
	return func(c *config) { c.core.InteractionAware = on }
}

// WithSyntacticEnumeration switches candidate enumeration from the
// optimizer-coupled Enumerate Indexes EXPLAIN mode to the loosely
// coupled syntactic baseline (the paper's coupling ablation).
func WithSyntacticEnumeration(on bool) Option {
	return func(c *config) {
		c.core.Source = nil
		if on {
			c.core.Source = candidate.SyntacticSource{}
		}
	}
}

// WithParallelism bounds concurrent what-if query evaluations (0 =
// GOMAXPROCS). Recommendations are identical at every worker count.
func WithParallelism(n int) Option {
	return func(c *config) { c.core.Parallelism = n }
}

// WithCacheSize caps the number of memoized what-if atoms, one per
// (query, projected sub-configuration) pair (0 = the default cap of
// 65536, negative = unlimited).
func WithCacheSize(n int) Option {
	return func(c *config) { c.core.CacheSize = n }
}

// WithDeadline bounds every recommendation that does not carry its own
// request timeout (RecommendRequest.TimeoutMS). At the deadline, the
// race portfolio returns the best configuration any member finished
// instead of failing; a race with no finished member, or any other
// search the deadline cuts off, fails with the context error.
func WithDeadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// WithResilience wraps the what-if cost service in the resilience
// middleware, directly below the memoizing engine: per-call timeouts,
// bounded retries with exponential backoff and deterministic jitter,
// and a circuit breaker that fails fast (ErrCircuitOpen) while the
// backend is down — cached evaluations keep serving throughout. A
// breaker opening mid-search degrades the recommendation to
// best-so-far (RecommendResponse.Degraded) instead of failing it. The
// zero ResilienceOptions value selects production defaults.
func WithResilience(o ResilienceOptions) Option {
	return func(c *config) { ro := o; c.core.Resilience = &ro }
}

// WithCostWrapper interposes wrap on the what-if cost service, below
// the resilience middleware (engine → resilience → wrap(backend)). It
// exists for fault injection and backend shims; wrap must return a
// service safe for concurrent use.
func WithCostWrapper(wrap func(CostService) CostService) Option {
	return func(c *config) { c.core.CostWrapper = wrap }
}

// WithFaultInjection wraps the cost service in the deterministic
// fault injector (chaos testing, the CI soak, `xiad -faults`). The
// spec is the whatif.ParseFaultSpec syntax, e.g.
// "seed=7,error=0.1,latency=0.05:3ms,panic=25"; an invalid spec fails
// New. The empty spec disables injection. Composes with
// WithCostWrapper: the injector wraps the wrapped service.
func WithFaultInjection(spec string) Option {
	return func(c *config) { c.faultSpec = spec }
}

// validate is the single defaulting/validation path for advisor
// configuration, replacing per-command flag checks. It normalizes the
// strategy to its canonical name.
func (c *config) validate() error {
	if c.budgetKB < 0 || c.budgetKB > maxBudgetKB {
		return &OptionError{Option: "WithBudgetKB", Value: c.budgetKB,
			Reason: fmt.Sprintf("disk budget must be in [0, %d] KB (0 = unlimited)", maxBudgetKB)}
	}
	if c.budgetKB > 0 {
		c.core.DiskBudgetPages = budgetKBToPages(c.budgetKB)
	}
	if c.core.DiskBudgetPages < 0 {
		return &OptionError{Option: "WithBudgetPages", Value: c.core.DiskBudgetPages,
			Reason: "disk budget must be >= 0 (0 = unlimited)"}
	}
	canon, err := search.Canonical(string(c.core.Search))
	if err != nil {
		return &OptionError{Option: "WithStrategy", Value: string(c.core.Search), Reason: err.Error()}
	}
	c.core.Search = core.SearchKind(canon)
	if c.core.Rules != "" {
		if _, err := candidate.ParseRules(c.core.Rules); err != nil {
			return &OptionError{Option: "WithRules", Value: c.core.Rules, Reason: err.Error()}
		}
	}
	if c.core.Parallelism < 0 {
		return &OptionError{Option: "WithParallelism", Value: c.core.Parallelism,
			Reason: "worker count must be >= 0 (0 = GOMAXPROCS)"}
	}
	if c.deadline < 0 {
		return &OptionError{Option: "WithDeadline", Value: c.deadline,
			Reason: "deadline must be >= 0 (0 = none)"}
	}
	if c.snapshotDir != "" {
		if err := os.MkdirAll(c.snapshotDir, 0o755); err != nil {
			return &OptionError{Option: "WithSnapshotDir", Value: c.snapshotDir, Reason: err.Error()}
		}
	}
	if c.faultSpec != "" {
		sched, err := whatif.ParseFaultSpec(c.faultSpec)
		if err != nil {
			return &OptionError{Option: "WithFaultInjection", Value: c.faultSpec, Reason: err.Error()}
		}
		user := c.core.CostWrapper
		c.core.CostWrapper = func(svc whatif.CostService) whatif.CostService {
			if user != nil {
				svc = user(svc)
			}
			return whatif.NewFaultService(svc, sched)
		}
	}
	return nil
}
