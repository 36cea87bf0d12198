// Package candidate is the candidate-generation front end of the XML
// Index Advisor: the first two stages of the paper's pipeline (Figure 1),
// extracted behind a pluggable API so the configuration search in
// internal/core only ever sees a finished candidate Set.
//
// The package has three layers:
//
//   - Source is the pluggable per-query enumerator of basic candidates
//     (§2.1): OptimizerSource wraps the optimizer's Enumerate Indexes
//     EXPLAIN mode, and SyntacticSource is the loosely coupled baseline
//     that scrapes paths from the query text.
//   - Rule is one named §2.2 generalization rewrite (pairwise LUB,
//     wildcard substitution, descendant-leaf relaxation, axis
//     relaxation, universal roots). Rules are individually toggleable
//     and keep applied/pruned counters.
//   - Pipeline fans a Source across the workload's queries on a bounded
//     worker pool, deduplicates by Candidate.Key, runs the rule engine
//     to fixpoint under a candidate budget, prunes candidates that would
//     index nothing, and assembles the containment DAG (Figure 4).
//
// The pipeline is deterministic: the same workload, source, and rules
// produce the same Set at every parallelism level.
package candidate

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/sqltype"
)

// Candidate is one candidate index in the advisor's search space.
type Candidate struct {
	ID         int
	Collection string
	Pattern    pattern.Pattern
	Type       sqltype.Type

	// Basic marks candidates enumerated directly from a query by a
	// Source; generalized candidates have Basic=false.
	Basic bool
	// Rule names the generalization rule that produced this candidate
	// (empty for basic candidates).
	Rule string
	// FromQueries lists workload query indices that enumerated this
	// candidate (basic candidates only).
	FromQueries []int

	// Def is the virtual index definition used in Evaluate Indexes
	// calls; its EstPages is the candidate's size.
	Def *catalog.IndexDef

	// Parents are direct generalizations, Children direct
	// specializations, in the candidate DAG.
	Parents  []*Candidate
	Children []*Candidate

	// covers lists the basic candidates this candidate's index would
	// serve (same type, containing pattern): the redundancy coverage of
	// the greedy heuristic. Stored sparse — a candidate typically covers
	// a handful of basics, so per-candidate dense bitmaps would cost
	// O(candidates × basics) bits and dominate memory at 10k+ candidates.
	covers CoverSet

	// key memoizes Key: sorts, trace events and tie-breaks ask for it
	// far more often than candidates are made.
	key atomic.Pointer[string]
}

// Pages returns the candidate's estimated size in pages.
func (c *Candidate) Pages() int64 { return c.Def.EstPages }

// Key identifies the candidate by what it indexes. It is rendered on
// the first call and memoized, so Collection, Pattern and Type must not
// change after it. Safe for concurrent use.
func (c *Candidate) Key() string {
	if k := c.key.Load(); k != nil {
		return *k
	}
	k := c.Collection + "|" + c.Pattern.String() + "|" + c.Type.Short()
	c.key.Store(&k)
	return k
}

// Covers is the candidate's redundancy coverage over basic-candidate
// indices: index b is present when this candidate's index would serve
// basic candidate b (same type, containing pattern). Callers must not
// mutate the returned set.
func (c *Candidate) Covers() CoverSet { return c.covers }

// SetCovers installs the candidate's coverage set from a sorted list of
// basic-candidate indices. It exists for synthetic candidate spaces
// (benchmarks, scale tests); the pipeline fills coverage itself.
func (c *Candidate) SetCovers(indices []int32) { c.covers = CoverSet(indices) }

// String renders the candidate compactly.
func (c *Candidate) String() string {
	kind := "gen"
	if c.Basic {
		kind = "basic"
	}
	return fmt.Sprintf("%s AS %s on %s (%s, ~%d pages)", c.Pattern, c.Type.Short(), c.Collection, kind, c.Pages())
}

// Set is the pipeline's output: the full candidate space the search
// runs over.
type Set struct {
	// All is every candidate (basic and generalized), IDs dense from 0.
	All []*Candidate
	// Basics is the subset enumerated directly from queries, in
	// Key order (the same order the covers bitmaps index).
	Basics []*Candidate
	// DAG is the containment DAG over All (paper Figure 4).
	DAG *DAG
	// Stats describes the pipeline run that produced the set.
	Stats Stats
}

// Bitset is a simple fixed-capacity bitmap over basic-candidate indices.
type Bitset []uint64

// NewBitset returns a bitmap able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << uint(i%64) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Or folds o into b.
func (b Bitset) Or(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each iterates the set bit indices in ascending order; use with
// range-over-func: for i := range b.Each { ... }.
func (b Bitset) Each(yield func(int) bool) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			if !yield(wi*64 + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// CoverSet is a sparse ascending list of basic-candidate indices — one
// candidate's redundancy coverage. Coverage sets are tiny (a candidate
// covers the few basics its pattern contains) while the basic count
// grows with the workload, so the sparse form keeps the whole space's
// coverage O(total covered pairs) instead of O(candidates × basics)
// bits. The dense Bitset remains the right shape for the single
// "covered so far" accumulator the greedy search folds CoverSets into.
type CoverSet []int32

// Get reports whether basic-candidate index i is covered.
func (s CoverSet) Get(i int) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && int(s[lo]) == i
}

// SubsetOf reports whether every covered index is already set in the
// dense accumulator b.
func (s CoverSet) SubsetOf(b Bitset) bool {
	for _, i := range s {
		if !b.Get(int(i)) {
			return false
		}
	}
	return true
}

// OrInto folds the coverage into the dense accumulator b.
func (s CoverSet) OrInto(b Bitset) {
	for _, i := range s {
		b.Set(int(i))
	}
}
