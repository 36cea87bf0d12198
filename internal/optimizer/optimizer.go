// Package optimizer implements the cost-based query optimizer substrate:
// per-query access-path selection between full document scans and XML
// value index scans (single index or index-ANDing), driven by collected
// statistics and exact pattern-containment index matching.
//
// On top of normal optimization it implements the paper's two new EXPLAIN
// modes:
//
//   - Enumerate Indexes: plant virtual universal indexes (//* and //@*,
//     one per SQL type), run the ordinary index-matching code, and report
//     every query pattern that matched — "if all possible indexes were
//     available, which query patterns would benefit?" (paper §2.1).
//   - Evaluate Indexes: install a virtual index configuration and report
//     the estimated cost of the query under it (paper §2.3).
package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/stats"
)

// AccessKind distinguishes access paths.
type AccessKind uint8

const (
	// AccessDocScan reads and navigates every document.
	AccessDocScan AccessKind = iota
	// AccessIndexScan probes an XML value index.
	AccessIndexScan
)

// String names the access kind.
func (k AccessKind) String() string {
	if k == AccessIndexScan {
		return "IXSCAN"
	}
	return "DOCSCAN"
}

// LegAccess is the chosen access path for one anchoring leg.
type LegAccess struct {
	Leg   querylang.Leg
	Index *catalog.IndexDef

	// ValueSel is the selectivity of the leg's value predicate.
	ValueSel float64
	// EntriesScanned is the estimated number of index entries read.
	EntriesScanned float64
	// Matches is the estimated number of entries satisfying both the
	// value predicate and the leg pattern.
	Matches float64
	// DocSel is the estimated fraction of documents surviving this leg.
	DocSel float64
	// ResidualPathCheck is set when the index pattern properly contains
	// the leg pattern, so each entry's rooted path must be re-verified.
	ResidualPathCheck bool
	// Cost is the index access cost (descent + leaf scan + residual),
	// excluding the document fetch.
	Cost float64

	// Members is non-empty for an index-ORing anchor: one scan per
	// disjunct of a pure OR group, whose document sets are unioned.
	// Leg/Index then describe the first member for display only.
	Members []LegAccess
}

// IsOr reports whether the access is an index-ORing anchor.
func (a *LegAccess) IsOr() bool { return len(a.Members) > 0 }

// Plan is the optimizer's output for one query.
type Plan struct {
	Query *querylang.Query

	// Access holds the chosen index anchors; empty means full scan.
	Access []LegAccess
	// FetchDocs is the estimated number of documents fetched (index
	// plans only).
	FetchDocs float64
	// Cost is the estimated total cost of the chosen plan.
	Cost float64
	// DocScanCost is the cost of the document-scan alternative, kept
	// for benefit computation and display.
	DocScanCost float64
}

// UsesIndexes reports whether the plan uses any index.
func (p *Plan) UsesIndexes() bool { return len(p.Access) > 0 }

// IndexNames returns the names of the indexes the plan uses, sorted and
// deduplicated (OR anchors contribute every member index).
func (p *Plan) IndexNames() []string {
	seen := map[string]bool{}
	var out []string
	addName := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, a := range p.Access {
		if a.IsOr() {
			for _, m := range a.Members {
				addName(m.Index.Name)
			}
			continue
		}
		addName(a.Index.Name)
	}
	sort.Strings(out)
	return out
}

// Describe renders a compact plan explanation.
func (p *Plan) Describe() string {
	var sb strings.Builder
	if !p.UsesIndexes() {
		fmt.Fprintf(&sb, "DOCSCAN cost=%.2f", p.Cost)
		return sb.String()
	}
	fmt.Fprintf(&sb, "IXAND(%d) cost=%.2f fetch=%.1f docscan=%.2f", len(p.Access), p.Cost, p.FetchDocs, p.DocScanCost)
	for _, a := range p.Access {
		if a.IsOr() {
			fmt.Fprintf(&sb, "\n  IXOR(%d) [docsel=%.4f cost=%.2f]", len(a.Members), a.DocSel, a.Cost)
			for _, m := range a.Members {
				fmt.Fprintf(&sb, "\n    IXSCAN %s on %s [docsel=%.4f]", m.Index.Name, m.Leg, m.DocSel)
			}
			continue
		}
		fmt.Fprintf(&sb, "\n  IXSCAN %s on %s", a.Index.Name, a.Leg)
		fmt.Fprintf(&sb, " [sel=%.4f entries=%.0f docsel=%.4f cost=%.2f residual=%v]",
			a.ValueSel, a.EntriesScanned, a.DocSel, a.Cost, a.ResidualPathCheck)
	}
	return sb.String()
}

// Optimizer is the cost-based optimizer over a catalog.
type Optimizer struct {
	Cat  *catalog.Catalog
	Cost CostModel

	// MaxAnchors bounds index-ANDing width.
	MaxAnchors int

	// virtualOnly hides the catalog's real indexes from planning, so
	// that Evaluate Indexes isolates a hypothetical configuration.
	virtualOnly bool
}

// New returns an optimizer with the default cost model.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Cost: DefaultCost, MaxAnchors: 3}
}

// Optimize chooses the cheapest plan for the query using the catalog's
// registered indexes plus the given extra (virtual) definitions.
func (o *Optimizer) Optimize(q *querylang.Query, extra []*catalog.IndexDef) (*Plan, error) {
	st, err := o.Cat.Stats(q.Collection)
	if err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	plan := &Plan{Query: q}
	plan.DocScanCost = o.docScanCost(st)
	plan.Cost = plan.DocScanCost

	// Collect the best index access per anchorable leg.
	var indexes []*catalog.IndexDef
	if !o.virtualOnly {
		indexes = o.Cat.Indexes(q.Collection)
	}
	indexes = append(indexes, extra...)
	var accesses []LegAccess
	orGroups := map[int][]querylang.Leg{}
	for _, leg := range q.Legs() {
		if leg.Output {
			continue
		}
		if leg.Disjunct {
			if leg.OrGroup > 0 {
				orGroups[leg.OrGroup] = append(orGroups[leg.OrGroup], leg)
			}
			continue // a lone disjunct cannot restrict the result
		}
		best, ok := o.bestAccess(st, leg, indexes)
		if !ok {
			continue
		}
		accesses = append(accesses, best)
	}
	// Index ORing: a pure OR group is answerable when every disjunct
	// has a covering index; the anchor unions the member scans.
	groupIDs := make([]int, 0, len(orGroups))
	for g := range orGroups {
		groupIDs = append(groupIDs, g)
	}
	sort.Ints(groupIDs)
	for _, g := range groupIDs {
		legs := orGroups[g]
		members := make([]LegAccess, 0, len(legs))
		complete := true
		for _, leg := range legs {
			acc, ok := o.bestAccess(st, leg, indexes)
			if !ok {
				complete = false
				break
			}
			members = append(members, acc)
		}
		if !complete || len(members) < 2 {
			continue
		}
		or := LegAccess{Leg: members[0].Leg, Index: members[0].Index, Members: members}
		for _, m := range members {
			or.Cost += m.Cost
			or.DocSel += m.DocSel
			or.EntriesScanned += m.EntriesScanned
			or.Matches += m.Matches
		}
		if or.DocSel > 1 {
			or.DocSel = 1
		}
		accesses = append(accesses, or)
	}
	// Most selective anchors first.
	slices.SortFunc(accesses, func(a, b LegAccess) int {
		if a.DocSel != b.DocSel {
			if a.DocSel < b.DocSel {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Index.Name, b.Index.Name)
	})

	maxK := o.MaxAnchors
	if maxK < 1 {
		maxK = 1
	}
	if maxK > len(accesses) {
		maxK = len(accesses)
	}
	for k := 1; k <= maxK; k++ {
		cost, fetch := o.andCost(st, accesses[:k])
		if cost < plan.Cost {
			plan.Cost = cost
			plan.FetchDocs = fetch
			plan.Access = append([]LegAccess(nil), accesses[:k]...)
		}
	}
	return plan, nil
}

// docScanCost is the cost of scanning and navigating every document.
func (o *Optimizer) docScanCost(st *stats.Stats) float64 {
	return float64(st.Pages)*o.Cost.IOPage + float64(st.Nodes)*o.Cost.CPUNode
}

// typeForLeg is the index SQL type that can answer the leg. An existence
// leg needs an index holding every node of its pattern: under the shared
// entry rule (xindex.DocNode.Key) every value casts to VARCHAR, so only a
// VARCHAR index does, and the statistics count it so.
func typeForLeg(leg querylang.Leg) sqltype.Type {
	if leg.Op == sqltype.Exists || leg.Op == sqltype.ContainsSubstr {
		return sqltype.Varchar
	}
	return leg.Value.Type
}

// serves is the index-applicability rule: an index can serve a leg iff
// its SQL type is the leg's index type and its pattern contains the leg
// pattern. bestAccess and RelevantFilter both decide by it.
func serves(def *catalog.IndexDef, pat pattern.Pattern, typ sqltype.Type) bool {
	return def.Type == typ && pattern.ContainsCached(def.Pattern, pat)
}

// bestAccess returns the cheapest index access for the leg, if any index
// serves it. This is the index-matching routine the Enumerate Indexes
// mode reuses.
func (o *Optimizer) bestAccess(st *stats.Stats, leg querylang.Leg, indexes []*catalog.IndexDef) (LegAccess, bool) {
	typ := typeForLeg(leg)
	var best LegAccess
	found := false
	for _, def := range indexes {
		if !serves(def, leg.Pattern, typ) {
			continue
		}
		acc := o.costAccess(st, leg, def, typ)
		if !found || acc.Cost < best.Cost {
			best = acc
			found = true
		}
	}
	return best, found
}

// costAccess costs one (leg, index) access.
func (o *Optimizer) costAccess(st *stats.Stats, leg querylang.Leg, def *catalog.IndexDef, typ sqltype.Type) LegAccess {
	acc := LegAccess{Leg: leg, Index: def}
	idxEntries := float64(def.Entries())
	legEntries := float64(st.TypedCardinality(leg.Pattern, typ))

	// Selectivity of the value predicate over the leg's pattern, and
	// over the whole index contents (what a range scan must read).
	var legSel, idxSel float64
	switch leg.Op {
	case sqltype.Exists:
		legSel, idxSel = 1, 1
	case sqltype.Ne, sqltype.ContainsSubstr:
		legSel = st.Selectivity(leg.Pattern, leg.Op, leg.Value)
		idxSel = 1 // full index scan
	default:
		legSel = st.Selectivity(leg.Pattern, leg.Op, leg.Value)
		idxSel = st.Selectivity(def.Pattern, leg.Op, leg.Value)
	}
	acc.ValueSel = legSel
	acc.EntriesScanned = idxEntries * idxSel
	acc.Matches = legEntries * legSel
	acc.ResidualPathCheck = !pattern.ContainsCached(leg.Pattern, def.Pattern)

	height := 2.0
	if idxEntries > 0 {
		for n := idxEntries / entriesPerLeafPage; n > 1; n /= entriesPerLeafPage {
			height++
		}
	}
	leafPages := acc.EntriesScanned / entriesPerLeafPage
	acc.Cost = height*o.Cost.IORandom + leafPages*o.Cost.IOPage + acc.EntriesScanned*o.Cost.CPUEntry
	if acc.ResidualPathCheck {
		acc.Cost += acc.EntriesScanned * o.Cost.CPUPathCheck
	}

	docs := float64(st.Docs)
	matchedDocs := yaoDocs(docs, acc.Matches)
	if docs > 0 {
		acc.DocSel = matchedDocs / docs
	}
	return acc
}

// andCost is the cost of an index-ANDed plan over the given anchors: scan
// every index, intersect document IDs, fetch the surviving documents, and
// finish the query by navigation on them.
func (o *Optimizer) andCost(st *stats.Stats, anchors []LegAccess) (cost, fetchDocs float64) {
	docs := float64(st.Docs)
	sel := 1.0
	for _, a := range anchors {
		cost += a.Cost
		sel *= a.DocSel
	}
	fetchDocs = docs * sel
	if fetchDocs > 0 && fetchDocs < 1 {
		fetchDocs = 1
	}
	var pagesPerDoc, nodesPerDoc float64
	if docs > 0 {
		pagesPerDoc = float64(st.Pages) / docs
		if pagesPerDoc < 1 {
			pagesPerDoc = 1
		}
		nodesPerDoc = float64(st.Nodes) / docs
	}
	cost += fetchDocs * (pagesPerDoc*o.Cost.IORandom + nodesPerDoc*o.Cost.CPUNode)
	return cost, fetchDocs
}
