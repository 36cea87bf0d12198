package search

import (
	"context"
	"fmt"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/whatif"
)

// Synthetic candidate-space generator: a deterministic, self-contained
// search problem at arbitrary scale (10k+ candidates), used by the
// BenchmarkSearchScale trajectory and the scale smoke tests. Real
// advisor runs bottom out in optimizer calls whose cost swamps the
// search layer long before the candidate count stresses it; the
// synthetic space replaces the what-if service with a microsecond-scale
// benefit model that keeps the properties the strategies rely on —
// submodular query benefit, modular update cost, index interaction
// through shared queries, a containment DAG whose most general roots
// are too expensive to recommend — so search-layer scaling (what-if
// call counts, heap behavior, trace volume, racing) is measurable in
// isolation.
const (
	// synQueriesPerWinner is how many shared workload queries each
	// winner candidate serves. Combined with the small query universe
	// this puts many winners on every query: heavy interaction, so
	// marginal benefits collapse far below standalone benefits and the
	// an eager scan keeps re-pricing the whole winner prefix every round —
	// the regime the lazy-greedy heap exists for.
	synQueriesPerWinner = 4
	// synChildrenPerGen is the DAG fan-out: each generalized root
	// covers a block of this many basics.
	synChildrenPerGen = 64
	// synBudgetPages is the default disk budget: room for every winner
	// plus a long tail of filler picks, independent of n so round
	// counts stay comparable across scales. Callers can re-budget with
	// WithBudget.
	synBudgetPages = 2000
	// synWorkers is the fixed evaluator parallelism, so fan-out
	// concurrency is machine-independent.
	synWorkers = 8
)

// lcg is a 64-bit linear congruential generator (Knuth's MMIX
// constants): deterministic, seedable, and dependency-free, which is
// all the synthetic space needs.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// float returns a uniform float64 in [0, 1).
func (r *lcg) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// NewSyntheticSpace builds a deterministic synthetic search problem
// with n basic candidates plus the generalized DAG roots over them.
// The same (n, seed) always produces the identical space: identical
// candidates, identical evaluations, identical recommendations.
//
// The population mirrors the paper's spaces at a caricature's scale:
//
//   - n/20 "winner" basics carry most of the workload benefit and
//     interact heavily (synQueriesPerWinner shared queries each from a
//     universe of max(8, n/64)), so their marginals collapse as the
//     configuration grows — the lazy-vs-eager gap lives here;
//   - the remaining basics are near-independent fillers with small
//     positive nets (about one in ten is net-negative), the long tail
//     every strategy wades through;
//   - each generalized root covers a 64-block of basics at the sum of
//     their sizes. Roots over winners are net-negative standalone (the
//     paper's "most general indexes are usually far too large to
//     recommend": huge update cost), which keeps them out of the
//     top-down start configuration — top-down can only reach the
//     filler tail, so its achievable net is honestly small. Roots over
//     fillers are barely net-positive.
//
// Query benefit is weighted max-cover over the shared queries (each
// query is served by its best configuration member) plus a small
// per-candidate private benefit, so greedy marginals are submodular;
// update cost is modular. The private benefit also keeps every
// configuration member "used", so the reclamation path stays quiet
// here (real-workload tests exercise it) and lazy-greedy's key resets
// never fire.
func NewSyntheticSpace(n int, seed uint64) *Space {
	if n < 40 {
		n = 40
	}
	nw := n / 20 // winners
	m := n / 64  // shared query universe
	if m < 8 {
		m = 8
	}
	rng := lcg(seed ^ 0x9e3779b97f4a7c15)
	rng.next()

	ngw := (nw + synChildrenPerGen - 1) / synChildrenPerGen
	ngd := (n - nw + synChildrenPerGen - 1) / synChildrenPerGen
	total := n + ngw + ngd
	ev := &synthEval{
		m:       m,
		base:    make([]float64, total),
		vals:    make([]float64, total),
		upd:     make([]float64, total),
		queries: make([][]int32, total),
	}
	all := make([]*Candidate, 0, total)
	newBasic := func(id int, pages int64) *Candidate {
		pat := pattern.MustParse(fmt.Sprintf("/syn/b%06d", id))
		c := &candidate.Candidate{
			ID:         id,
			Collection: "syn",
			Pattern:    pat,
			Type:       sqltype.Double,
			Basic:      true,
			Def: &catalog.IndexDef{
				Name:       fmt.Sprintf("syn_b%06d", id),
				Collection: "syn",
				Pattern:    pat,
				Type:       sqltype.Double,
				Virtual:    true,
				EstEntries: pages * 64,
				EstPages:   pages,
			},
		}
		c.SetCovers([]int32{int32(id)})
		return c
	}
	for i := 0; i < nw; i++ {
		v := 500 + 500*rng.float()
		// Distinct shared queries (duplicate draws merge, so a winner
		// serves 1..synQueriesPerWinner queries).
		var qs []int32
		for k := 0; k < synQueriesPerWinner; k++ {
			q := int32(rng.intn(m))
			dup := false
			for _, have := range qs {
				if have == q {
					dup = true
					break
				}
			}
			if !dup {
				qs = append(qs, q)
			}
		}
		sortInt32(qs)
		ev.vals[i] = v
		ev.queries[i] = qs
		ev.base[i] = 0.01 * v
		ev.upd[i] = v * float64(len(qs)) * (0.2 + 0.3*rng.float())
		all = append(all, newBasic(i, int64(2+rng.intn(9))))
	}
	for i := nw; i < n; i++ {
		b := 2 + 8*rng.float()
		ev.base[i] = b
		ev.upd[i] = b * (0.2 + 1.0*rng.float())
		all = append(all, newBasic(i, int64(4+rng.intn(9))))
	}

	// Generalized roots: 64-blocks over [lo, hi) of the basics just
	// built. Winner roots price at 1.5x their standalone benefit (deep
	// under water); filler roots at standalone benefit minus one (barely
	// worth keeping, never worth a budget slot).
	roots := make([]*Candidate, 0, ngw+ngd)
	newGen := func(gi, lo, hi int, winner bool) {
		id := n + gi
		onQuery := make(map[int32]bool)
		maxV, sumBase := 0.0, 0.0
		var pages int64
		covers := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			for _, q := range ev.queries[i] {
				onQuery[q] = true
			}
			if ev.vals[i] > maxV {
				maxV = ev.vals[i]
			}
			sumBase += ev.base[i]
			pages += all[i].Pages()
			covers = append(covers, int32(i))
		}
		qs := make([]int32, 0, len(onQuery))
		for q := range onQuery {
			qs = append(qs, q)
		}
		sortInt32(qs)
		v := 0.9 * maxV
		ev.vals[id] = v
		ev.queries[id] = qs
		ev.base[id] = 0.9 * sumBase
		alone := v*float64(len(qs)) + ev.base[id]
		if winner {
			ev.upd[id] = 1.5 * alone
		} else {
			ev.upd[id] = alone - 1
		}
		pat := pattern.MustParse(fmt.Sprintf("/syn/g%05d", gi))
		g := &candidate.Candidate{
			ID:         id,
			Collection: "syn",
			Pattern:    pat,
			Type:       sqltype.Double,
			Rule:       "synthetic",
			Def: &catalog.IndexDef{
				Name:       fmt.Sprintf("syn_g%05d", gi),
				Collection: "syn",
				Pattern:    pat,
				Type:       sqltype.Double,
				Virtual:    true,
				EstEntries: pages * 64,
				EstPages:   pages,
			},
		}
		g.SetCovers(covers)
		for i := lo; i < hi; i++ {
			g.Children = append(g.Children, all[i])
			all[i].Parents = append(all[i].Parents, g)
		}
		all = append(all, g)
		roots = append(roots, g)
	}
	gi := 0
	for lo := 0; lo < nw; lo += synChildrenPerGen {
		hi := lo + synChildrenPerGen
		if hi > nw {
			hi = nw
		}
		newGen(gi, lo, hi, true)
		gi++
	}
	for lo := nw; lo < n; lo += synChildrenPerGen {
		hi := lo + synChildrenPerGen
		if hi > n {
			hi = n
		}
		newGen(gi, lo, hi, false)
		gi++
	}

	sp, err := NewSpace(Space{
		Candidates:       all,
		DAG:              &candidate.DAG{Nodes: all, Roots: roots},
		BudgetPages:      synBudgetPages,
		Eval:             ev,
		InteractionAware: true,
		Benefits:         ev.benefits(),
	})
	if err != nil {
		panic(err) // the generator builds dense IDs and one row per candidate
	}
	return sp
}

// sortInt32 is an insertion sort for the tiny query lists (avoids a
// sort.Slice closure per candidate on the generation path).
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// synthEval is the synthetic what-if service: weighted max-cover query
// benefit over the shared queries, plus modular private benefit, minus
// modular update cost. Stateless per call (no cache), so Stats.Evals
// counts exactly the configurations a strategy priced.
type synthEval struct {
	// m is the shared query universe size.
	m int
	// Per candidate ID: base is the private benefit realized whenever
	// the candidate is in the configuration (and what keeps it "used");
	// vals its per-shared-query value; queries its distinct shared
	// queries; upd its update cost.
	base    []float64
	vals    []float64
	upd     []float64
	queries [][]int32
}

// Evaluate prices one configuration: each shared query is served by its
// best configuration member, benefit is the sum over queries plus the
// members' private benefits, update cost the sum over members.
func (s *synthEval) Evaluate(ctx context.Context, cfg []*Candidate) (*Eval, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.eval(cfg), nil
}

// EvaluateBatch prices base+{c} for the whole burst sequentially — the
// model is microseconds per call, so skipping the fan-out goroutines
// keeps the benchmark measuring search overhead, not scheduler churn.
func (s *synthEval) EvaluateBatch(ctx context.Context, base, cands []*Candidate) ([]*Eval, error) {
	out := make([]*Eval, len(cands))
	cfg := make([]*Candidate, len(base)+1)
	copy(cfg, base)
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg[len(base)] = c
		out[i] = s.eval(cfg)
	}
	return out, nil
}

// Workers is fixed so fan-out concurrency is machine-independent.
func (s *synthEval) Workers() int { return synWorkers }

// benefits builds the model's standalone benefit matrix: installed
// alone, candidate c improves each of its shared queries by vals[c]
// (it wins every query it serves when nothing competes) and delivers
// its private benefit base[c]. Row sums plus Private therefore equal
// the standalone QueryBenefit eval reports, which the matrix tests
// pin, and Update carries the model's modular update cost.
func (s *synthEval) benefits() *whatif.BenefitMatrix {
	m := &whatif.BenefitMatrix{
		NumQueries: s.m,
		Rows:       make([][]whatif.BenefitEntry, len(s.vals)),
		Private:    append([]float64(nil), s.base...),
		Update:     append([]float64(nil), s.upd...),
	}
	for c := range s.vals {
		if s.vals[c] <= 0 || len(s.queries[c]) == 0 {
			continue
		}
		row := make([]whatif.BenefitEntry, len(s.queries[c]))
		for i, q := range s.queries[c] {
			row[i] = whatif.BenefitEntry{Query: q, Benefit: s.vals[c]}
		}
		m.Rows[c] = row
	}
	return m
}

// eval prices a configuration. Every synthetic candidate carries a
// positive private benefit, which keeps it used, so every member is.
func (s *synthEval) eval(cfg []*Candidate) *Eval {
	out := &Eval{Usage: uniformUsage(true)}
	if len(cfg) == 0 {
		return out
	}
	if len(cfg) == 1 {
		// The lone member wins every query it serves. Its benefit is
		// summed as the benefit matrix sums its row, query by query and
		// then the private benefit, so it equals the matrix bit for bit.
		c := cfg[0]
		for range s.queries[c.ID] {
			out.QueryBenefit += s.vals[c.ID]
		}
		out.QueryBenefit += s.base[c.ID]
		out.UpdateCost = s.upd[c.ID]
		out.Net = out.QueryBenefit - out.UpdateCost
		return out
	}
	bestV := make([]float64, s.m)
	for _, c := range cfg {
		v := s.vals[c.ID]
		out.QueryBenefit += s.base[c.ID]
		out.UpdateCost += s.upd[c.ID]
		for _, q := range s.queries[c.ID] {
			bestV[q] = max(bestV[q], v)
		}
	}
	for _, v := range bestV {
		if v > 0 {
			out.QueryBenefit += v
		}
	}
	out.Net = out.QueryBenefit - out.UpdateCost
	return out
}
