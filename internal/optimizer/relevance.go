package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
)

// legSig is one deduplicated (pattern, index type) access signature of a
// query: the only two properties of a leg that bestAccess consults when
// deciding whether an index definition applies to it.
type legSig struct {
	pat pattern.Pattern
	typ sqltype.Type
}

// RelevantFilter returns a predicate reporting whether an index
// definition can influence the plan Optimize chooses for q. It applies
// bestAccess's applicability rule (serves) to every non-output leg of
// the query. Lone disjuncts, which Optimize itself skips, are kept as a
// safe over-approximation, so dropping definitions the predicate
// rejects from a configuration is provably cost-preserving: the plan,
// its cost, and its index set are identical with or without them.
//
// The predicate is safe for concurrent use and cheap (a few cached
// containment probes per definition); the leg signatures are computed
// once up front.
func RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	var sigs []legSig
	seen := map[string]bool{}
	for _, leg := range q.Legs() {
		if leg.Output {
			continue
		}
		typ := typeForLeg(leg)
		key := leg.Pattern.String() + "\x00" + typ.Short()
		if seen[key] {
			continue
		}
		seen[key] = true
		sigs = append(sigs, legSig{pat: leg.Pattern, typ: typ})
	}
	return func(def *catalog.IndexDef) bool {
		for _, s := range sigs {
			if serves(def, s.pat, s.typ) {
				return true
			}
		}
		return false
	}
}
