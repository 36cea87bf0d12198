package whatif

import "sort"

// BenefitEntry is one (query, candidate) cell of a BenefitMatrix: the
// standalone weighted benefit the candidate delivers on the query.
type BenefitEntry struct {
	// Query is the workload query index.
	Query int32
	// Benefit is weight * (cost without indexes - cost with only this
	// candidate), non-negative.
	Benefit float64
}

// BenefitMatrix holds standalone per-(query, candidate) benefit
// estimates: row i lists, sorted by query index, the queries candidate
// i improves when installed alone. It is the decomposed benefit model
// a CoPhy-style LP search strategy optimizes over: per-query benefits
// in Rows, plus the modular per-candidate terms (Private benefit and
// Update maintenance cost) that make net benefits computable without
// further what-if calls. Rows are aligned with whatever candidate
// order the producer documents (search.Space.Benefits aligns with
// Space.Candidates). A producer builds the matrix once, before handing
// it out (core builds a session's when it prepares or restores it),
// and never writes it again, so consumers share it without a lock.
type BenefitMatrix struct {
	// NumQueries is the workload query count (the column space).
	NumQueries int
	// Rows is one sparse row per candidate.
	Rows [][]BenefitEntry
	// Private is an optional per-candidate query-independent benefit
	// (synthetic benefit models use it); nil or zero for engine-built
	// matrices.
	Private []float64
	// Update is the optional per-candidate modular maintenance cost
	// (weighted update cost of installing the candidate alone).
	// Producers that know it fill it — the update cost is modular in
	// every shipped cost model, so consumers may treat nil as zero and
	// lean on what-if repair for anything the matrix cannot see.
	Update []float64
}

// StandaloneBenefit is candidate ci's total standalone query benefit:
// its row sum plus its private benefit.
func (m *BenefitMatrix) StandaloneBenefit(ci int) float64 {
	total := 0.0
	for _, e := range m.Rows[ci] {
		total += e.Benefit
	}
	if m.Private != nil {
		total += m.Private[ci]
	}
	return total
}

// UpdateCost is candidate ci's modular maintenance cost, 0 when the
// producer did not fill Update.
func (m *BenefitMatrix) UpdateCost(ci int) float64 {
	if m.Update == nil {
		return 0
	}
	return m.Update[ci]
}

// PrivateBenefit is candidate ci's query-independent benefit, 0 when
// the producer did not fill Private.
func (m *BenefitMatrix) PrivateBenefit(ci int) float64 {
	if m.Private == nil {
		return 0
	}
	return m.Private[ci]
}

// NonZero counts the populated cells across all rows.
func (m *BenefitMatrix) NonZero() int {
	n := 0
	for _, row := range m.Rows {
		n += len(row)
	}
	return n
}

// RelevanceStats summarizes the per-query relevant-candidate counts of
// a workload against a configuration or candidate set: how many index
// definitions can serve each query at all. The distribution is what
// makes relevance projection pay — the smaller the typical relevance
// set next to the full candidate count, the fewer CostService calls a
// search round costs.
type RelevanceStats struct {
	// Queries is the workload query count the histogram is over.
	Queries int     `json:"queries"`
	Min     int     `json:"min"`
	Median  int     `json:"median"`
	P95     int     `json:"p95"`
	Max     int     `json:"max"`
	Mean    float64 `json:"mean"`
}

// NewRelevanceStats summarizes per-query relevant-definition counts
// (order irrelevant). The zero value is returned for an empty input.
func NewRelevanceStats(counts []int) RelevanceStats {
	if len(counts) == 0 {
		return RelevanceStats{}
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	total := 0
	for _, c := range sorted {
		total += c
	}
	// Nearest-rank percentiles: index ceil(p*n)-1.
	rank := func(p float64) int {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return RelevanceStats{
		Queries: len(sorted),
		Min:     sorted[0],
		Median:  rank(0.50),
		P95:     rank(0.95),
		Max:     sorted[len(sorted)-1],
		Mean:    float64(total) / float64(len(sorted)),
	}
}
