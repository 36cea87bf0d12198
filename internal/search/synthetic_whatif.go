package search

import (
	"context"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/querylang"
	"repro/internal/whatif"
)

// synBaseCost is the document-scan cost of every synthetic shared
// query; per-query index benefit is a reduction below it.
const synBaseCost = 100000

// SyntheticBackend is a whatif.CostService (and RelevanceService) over
// the synthetic benefit model: the same max-cover cost function as
// synthEval, but decomposed per query so a real whatif.Engine — atom
// cache, relevance projection, worker pool — sits between the search
// and the model. A query's cost depends only on the configuration
// members that serve it, so RelevantFilter is exact and projection is
// cost-preserving by construction, mirroring the optimizer backend's
// contract at benchmark scale.
type SyntheticBackend struct {
	model *synthEval
	// byName maps an index-definition name back to its candidate ID.
	byName map[string]int
	// qIndex maps a query ID to its shared-query index.
	qIndex map[string]int
}

// EvaluateQuery implements whatif.CostService: the query's cost is
// synBaseCost minus the best per-query value among configuration
// members serving it (ties to the lowest candidate ID, matching
// synthEval).
func (b *SyntheticBackend) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (whatif.QueryEval, error) {
	if err := ctx.Err(); err != nil {
		return whatif.QueryEval{}, err
	}
	qi := b.qIndex[q.ID]
	ev := whatif.QueryEval{CostNoIndexes: synBaseCost, Cost: synBaseCost}
	bestV, bestID, bestName := 0.0, -1, ""
	for _, d := range config {
		id := b.byName[d.Name]
		if !b.serves(id, qi) {
			continue
		}
		v := b.model.vals[id]
		if v > bestV || (v == bestV && v > 0 && id < bestID) {
			bestV, bestID, bestName = v, id, d.Name
		}
	}
	if bestID >= 0 && bestV > 0 {
		ev.Cost -= bestV
		ev.UsedIndexes = []string{bestName}
	}
	return ev, nil
}

// RelevantFilter implements whatif.RelevanceService: a definition is
// relevant to a query iff its candidate serves the query in the model.
func (b *SyntheticBackend) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	qi := b.qIndex[q.ID]
	return func(d *catalog.IndexDef) bool { return b.serves(b.byName[d.Name], qi) }
}

// serves reports whether candidate id's index improves shared query qi.
func (b *SyntheticBackend) serves(id, qi int) bool {
	for _, sq := range b.model.queries[id] {
		if int(sq) == qi {
			return true
		}
	}
	return false
}

// derive folds the engine's per-query costs back into the
// synthetic model's workload aggregates, adding the modular private
// benefit (which keeps every member used) and update cost outside the
// engine exactly as synthEval computes them, so the whatif-backed space
// chooses the same configurations as the plain synthetic space. A lone
// member is priced by the model itself: subtracting the engine's costs
// loses the last bits of its values, and the benefit matrix has them.
func (b *SyntheticBackend) derive(res *whatif.ConfigEval, cfg []*Candidate) Eval {
	if len(cfg) == 1 {
		return *b.model.eval(cfg)
	}
	out := Eval{Usage: uniformUsage(true)}
	for _, qe := range res.Queries {
		out.QueryBenefit += qe.CostNoIndexes - qe.Cost
	}
	for _, c := range cfg {
		out.QueryBenefit += b.model.base[c.ID]
		out.UpdateCost += b.model.upd[c.ID]
	}
	out.Net = out.QueryBenefit - out.UpdateCost
	return out
}

// NewSyntheticWhatIfSpace is NewSyntheticSpace with a real what-if
// engine in the evaluation path: the same deterministic candidates,
// DAG, budget, and benefit model, but every configuration evaluation
// decomposes into per-(query, projected sub-config) atoms of a
// whatif.Engine over a SyntheticBackend. Strategies choose the same
// configurations as on the plain space; what changes is the measured
// cost — engine counters now count real per-query CostService calls,
// which is what the projection benchmarks and the engine-vs-model
// differential tests need at 10k+ candidates. The engine is returned
// alongside for counter access.
func NewSyntheticWhatIfSpace(n int, seed uint64, o whatif.Options) (*Space, *whatif.Engine) {
	sp := NewSyntheticSpace(n, seed)
	model := sp.Eval.(*synthEval)
	byName := make(map[string]int, len(sp.Candidates))
	for _, c := range sp.Candidates {
		byName[c.Def.Name] = c.ID
	}
	queries := make([]*querylang.Query, model.m)
	qIndex := make(map[string]int, model.m)
	for i := range queries {
		id := "S" + strconv.Itoa(i)
		queries[i] = &querylang.Query{
			ID:         id,
			Collection: "syn",
			Text:       "synthetic shared query " + strconv.Itoa(i),
		}
		qIndex[id] = i
	}
	backend := &SyntheticBackend{model: model, byName: byName, qIndex: qIndex}
	if o.Workers == 0 {
		o.Workers = synWorkers
	}
	eng := whatif.NewEngine(backend, o)
	sp.Eval = BoundEvaluator{Bound: eng.Bind(queries), Derive: backend.derive, Parallel: synWorkers}
	return sp, eng
}
