package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/whatif"
)

func TestPlainGreedyKeepsRedundantIndexes(t *testing.T) {
	// With no budget pressure, plain greedy adds every positive-benefit
	// candidate — including general indexes fully covered by specific
	// ones it already picked. The heuristic search must not.
	cat := xmarkFixture(t, 250)
	w := datagen.XMarkWorkload(14, 12)

	unused := func(kind SearchKind) int {
		opts := DefaultOptions()
		opts.Search = kind
		rec, err := New(cat, opts).Recommend(w)
		if err != nil {
			t.Fatal(err)
		}
		used := map[string]bool{}
		for _, qa := range rec.PerQuery {
			for _, n := range qa.IndexesUsed {
				used[n] = true
			}
		}
		return len(rec.Config) - len(used)
	}
	plain := unused(SearchGreedyBasic)
	heur := unused(SearchGreedyHeuristic)
	if heur != 0 {
		t.Errorf("heuristic search recommended %d unused indexes", heur)
	}
	if plain < heur {
		t.Errorf("plain greedy (%d unused) should not beat heuristic (%d)", plain, heur)
	}
}

func TestTopDownPrefersGeneralIndexes(t *testing.T) {
	cat := xmarkFixture(t, 250)
	w := datagen.XMarkWorkload(14, 13)

	base, err := New(cat, DefaultOptions()).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Search = SearchTopDown
	opts.DiskBudgetPages = search.PagesOf(base.Config) // generous budget
	top, err := New(cat, opts).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	wild := func(rec *Recommendation) int {
		n := 0
		for _, c := range rec.Config {
			n += c.Pattern.WildcardCount() + c.Pattern.DescendantCount()
		}
		return n
	}
	// Top-down keeps configurations as general as possible: its config
	// should carry at least as many wildcard/descendant steps.
	if wild(top) < wild(base) {
		t.Errorf("top-down config less general (%d) than greedy (%d)", wild(top), wild(base))
	}
}

func TestTopDownTerminatesOnTinyBudget(t *testing.T) {
	cat := xmarkFixture(t, 120)
	opts := DefaultOptions()
	opts.Search = SearchTopDown
	opts.DiskBudgetPages = 1
	rec, err := New(cat, opts).Recommend(datagen.XMarkWorkload(8, 14))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalPages > 1 {
		t.Errorf("budget 1 page violated: %d", rec.TotalPages)
	}
}

func TestRaceMatchesBestMember(t *testing.T) {
	cat := xmarkFixture(t, 200)
	w := datagen.XMarkWorkload(12, 15)

	base, err := New(cat, DefaultOptions()).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	budget := base.TotalPages / 2
	bestNet := -1.0
	for _, kind := range []SearchKind{SearchGreedyBasic, SearchGreedyHeuristic, SearchTopDown} {
		opts := DefaultOptions()
		opts.Search = kind
		opts.DiskBudgetPages = budget
		rec, err := New(cat, opts).Recommend(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.NetBenefit > bestNet {
			bestNet = rec.NetBenefit
		}
	}
	opts := DefaultOptions()
	opts.Search = SearchRace
	opts.DiskBudgetPages = budget
	rec, err := New(cat, opts).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NetBenefit+1e-6 < bestNet {
		t.Errorf("race net %.3f worse than best member %.3f", rec.NetBenefit, bestNet)
	}
	if rec.Search.Winner == "" {
		t.Error("race recorded no winner")
	}
	if len(rec.Search.Members) == 0 {
		t.Error("race recorded no member stats")
	}
	if rec.TotalPages > budget {
		t.Errorf("race config %d pages exceeds budget %d", rec.TotalPages, budget)
	}
}

func TestPreparedBudgetSweepMatchesFullRuns(t *testing.T) {
	cat := xmarkFixture(t, 200)
	w := datagen.XMarkWorkload(10, 16)
	ctx := context.Background()

	a := New(cat, DefaultOptions())
	prep, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	full, err := prep.RecommendWith(ctx, SearchGreedyHeuristic, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, full.TotalPages / 2, full.TotalPages / 4} {
		swept, err := prep.RecommendWith(ctx, SearchGreedyHeuristic, budget)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.DiskBudgetPages = budget
		fresh, err := New(cat, opts).Recommend(w)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(swept.DDL, "\n") != strings.Join(fresh.DDL, "\n") {
			t.Errorf("budget %d: swept recommendation differs from a full advisor run:\n%v\nvs\n%v",
				budget, swept.DDL, fresh.DDL)
		}
		if swept.NetBenefit != fresh.NetBenefit {
			t.Errorf("budget %d: net benefit %v != %v", budget, swept.NetBenefit, fresh.NetBenefit)
		}
	}
}

// cancelOnIndexed cancels the context cancel points at (when it points
// at one) on the first call whose configuration holds an index, and
// passes every other call to inner: the base (document-scan)
// evaluation succeeds and the benefit matrix's build is cancelled.
type cancelOnIndexed struct {
	inner  whatif.CostService
	cancel *atomic.Pointer[context.CancelFunc]
}

func (c cancelOnIndexed) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (whatif.QueryEval, error) {
	if cancel := c.cancel.Load(); cancel != nil && len(config) > 0 {
		(*cancel)()
		return whatif.QueryEval{}, ctx.Err()
	}
	return c.inner.EvaluateQuery(ctx, q, config)
}

// TestBenefitMatrixRetriesAfterFailedBuild pins that a cancelled
// request leaves its advisor and session intact. A Prepare whose
// context is cancelled while the benefit matrix is priced fails, and a
// Prepare on the same advisor then builds the matrix a fresh advisor
// does. An lp search on a cancelled context fails and leaves no base
// memo entry behind, every later lp search on the same session
// succeeds, and the retry recommends what a fresh session does.
func TestBenefitMatrixRetriesAfterFailedBuild(t *testing.T) {
	cat := xmarkFixture(t, 100)
	w := datagen.XMarkWorkload(10, 1)
	var cancelBuild atomic.Pointer[context.CancelFunc]
	opts := DefaultOptions()
	opts.CostWrapper = func(svc whatif.CostService) whatif.CostService {
		return cancelOnIndexed{inner: svc, cancel: &cancelBuild}
	}
	a := New(cat, opts)
	buildCtx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	cancelBuild.Store(&cancelCtx)
	if _, err := a.Prepare(buildCtx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare cancelled during the matrix build: got error %v, want context.Canceled", err)
	}
	cancelBuild.Store(nil)
	prep, err := a.Prepare(context.Background(), w)
	if err != nil {
		t.Fatalf("Prepare after a cancelled build: %v", err)
	}
	fresh, err := New(cat, DefaultOptions()).Prepare(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prep.Space().Benefits, fresh.Space().Benefits) {
		t.Error("the matrix rebuilt after a cancelled build differs from a fresh advisor's")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bases := prep.ev.bound.MemoizedBases()
	if _, err := prep.RecommendWith(ctx, "lp", 0); err == nil {
		t.Fatal("lp on a cancelled context succeeded")
	}
	if got := prep.ev.bound.MemoizedBases(); got != bases {
		t.Errorf("the cancelled lp left %d base memo entries behind", got-bases)
	}
	got, err := prep.RecommendWith(context.Background(), "lp", 0)
	if err != nil {
		t.Fatalf("lp after a cancelled request: %v", err)
	}
	want, err := fresh.RecommendWith(context.Background(), "lp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.DDL, "\n") != strings.Join(want.DDL, "\n") || got.NetBenefit != want.NetBenefit {
		t.Errorf("lp after a cancelled request recommends %v (net %.3f), a fresh session %v (net %.3f)",
			got.DDL, got.NetBenefit, want.DDL, want.NetBenefit)
	}
}

// errNonEmptyConfig is what nonEmptyOutage answers for a configuration
// that holds an index.
var errNonEmptyConfig = errors.New("cost backend down for indexed configurations")

// nonEmptyOutage fails every call whose configuration is non-empty
// while down is set, and passes the rest to inner: the base
// (document-scan) evaluation succeeds and every standalone evaluation
// of a candidate fails.
type nonEmptyOutage struct {
	inner whatif.CostService
	down  *atomic.Bool
}

func (o nonEmptyOutage) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (whatif.QueryEval, error) {
	if len(config) > 0 && o.down.Load() {
		return whatif.QueryEval{}, fmt.Errorf("query %s: %w", q.ID, errNonEmptyConfig)
	}
	return o.inner.EvaluateQuery(ctx, q, config)
}

// TestPrepareFailsWhenBenefitModelFails pins that the benefit matrix
// is built by Prepare: when its standalone evaluations fail, Prepare
// returns the failure (an open circuit breaker behind the resilience
// middleware), and nothing of the failed build stays behind to break a
// later Prepare once the backend is healthy.
func TestPrepareFailsWhenBenefitModelFails(t *testing.T) {
	cat := xmarkFixture(t, 100)
	w := datagen.XMarkWorkload(10, 1)
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		resilience *whatif.ResilientOptions
		want       error
	}{
		{"plain", nil, errNonEmptyConfig},
		{"resilient", &whatif.ResilientOptions{
			FailureThreshold: 1,
			OpenFor:          time.Hour,
			Sleep:            func(context.Context, time.Duration) error { return nil },
		}, whatif.ErrCircuitOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var down atomic.Bool
			down.Store(true)
			opts := DefaultOptions()
			opts.Resilience = tc.resilience
			opts.CostWrapper = func(svc whatif.CostService) whatif.CostService {
				return nonEmptyOutage{inner: svc, down: &down}
			}
			a := New(cat, opts)
			if _, err := a.Prepare(ctx, w); !errors.Is(err, tc.want) {
				t.Fatalf("Prepare under the outage: got error %v, want one wrapping %v", err, tc.want)
			}
			down.Store(false)
			if tc.resilience == nil {
				// The same advisor recovers with its backend.
				if _, err := a.Prepare(ctx, w); err != nil {
					t.Fatalf("Prepare after the outage: %v", err)
				}
			}
			p, err := New(cat, DefaultOptions()).Prepare(ctx, w)
			if err != nil {
				t.Fatalf("Prepare on a healthy advisor: %v", err)
			}
			if p.Space().Benefits.NonZero() == 0 {
				t.Error("healthy Prepare built an empty benefit matrix")
			}
		})
	}
}
