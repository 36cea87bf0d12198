package main

import (
	"fmt"
	"math/rand"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/store"
	"repro/internal/workload"
)

// The Medium catalog of the experiment harness: 1500 XMark documents and
// 120 TPoX securities, generated with the harness's fixed data seed. The
// data is the same on every run; the benchmark seed varies the workloads
// run against it.
const (
	mediumXMarkDocs  = 1500
	mediumSecurities = 120
	mediumDataSeed   = 42
)

// collections are the Medium catalog's collections, whose statistics
// set-up collects eagerly.
var collections = []string{"auction", "security", "order", "custacc"}

// buildCatalog generates the Medium data and collects every collection's
// statistics. Statistics are otherwise collected lazily on first use, and
// that first use must not land inside a timed op.
func buildCatalog() (*catalog.Catalog, error) {
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: mediumXMarkDocs, Seed: mediumDataSeed}); err != nil {
		return nil, fmt.Errorf("generate xmark: %w", err)
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: mediumSecurities, Seed: mediumDataSeed}); err != nil {
		return nil, fmt.Errorf("generate tpox: %w", err)
	}
	cat := catalog.New(st)
	for _, c := range collections {
		if _, err := cat.Stats(c); err != nil {
			return nil, fmt.Errorf("stats %s: %w", c, err)
		}
	}
	return cat, nil
}

// mix derives an independent 64-bit stream value from a seed and an index
// (splitmix64 finalizer), so every op's inputs are a pure function of the
// run seed and the op's position in the sequence.
func mix(seed uint64, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coldWorkloadText is op i's serve-cold workload: 20 XMark and 10 TPoX
// queries with op-specific constants and weights, and on every other op an
// XMark insert/delete pair weighing a fifth of the query weight. It is
// rendered in the textual workload format a client posts to xiad.
func coldWorkloadText(seed uint64, i int) string {
	s := mix(seed, uint64(i))
	x := datagen.XMarkWorkload(20, int64(s>>1))
	t := datagen.TPoXWorkload(10, int64(mix(s, 1)>>1), mediumSecurities)
	w := &workload.Workload{Name: fmt.Sprintf("cold-%d", i)}
	for _, src := range []*workload.Workload{x, t} {
		for _, e := range src.Queries {
			w.MustAddQuery(e.Weight, e.Query.Text)
		}
	}
	if i%2 == 1 {
		datagen.XMarkUpdates(w, w.TotalQueryWeight()/5, int64(mix(s, 2)>>1))
	}
	return w.Format()
}

// sweepWorkloads are the warm-sweep sessions: the harness's standard
// xmark (20 queries), tpox (18 queries) and paper workloads. They are
// fixed, so the recommendations, and with them net_benefit, repeat
// exactly; the seed orders each sweep's requests instead.
func sweepWorkloads() []*advisor.Workload {
	return []*advisor.Workload{
		datagen.XMarkWorkload(20, 1),
		datagen.TPoXWorkload(18, 1, mediumSecurities),
		datagen.XMarkPaperWorkload(),
	}
}

// sweepStrategies and sweepBudgetPercents span one warm sweep: every
// strategy at every budget, given as a share of the session's basicsPages.
var (
	sweepStrategies     = []string{"greedy-heuristic", "topdown", "greedy-basic", "lp", "race"}
	sweepBudgetPercents = []int64{10, 25, 50, 100}
)

// sweepRequest is one recommend of a warm sweep.
type sweepRequest struct {
	session  int
	strategy string
	percent  int64
}

// sweepOrder is op i's request order: every (session, strategy, budget)
// once, shuffled by the run seed and the op index.
func sweepOrder(seed uint64, i, sessions int) []sweepRequest {
	var reqs []sweepRequest
	for s := 0; s < sessions; s++ {
		for _, st := range sweepStrategies {
			for _, p := range sweepBudgetPercents {
				reqs = append(reqs, sweepRequest{session: s, strategy: st, percent: p})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(i)) >> 1)))
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

// budgetFor converts a budget share into pages; any share is at least one
// page.
func budgetFor(basicsPages, percent int64) int64 {
	if b := basicsPages * percent / 100; b > 0 {
		return b
	}
	return 1
}
