package pattern

// This file holds the generalization primitives behind the advisor's
// candidate-expansion phase (paper §2.2). The advisor applies these rules
// to the optimizer-enumerated candidates to obtain index patterns that can
// benefit several workload queries — and future queries with similar
// shapes — then arranges the result in a DAG ordered by containment.

// PairwiseLUB computes the least upper bound of two patterns under
// positionwise wildcarding: if p and q have the same number of steps, the
// same axes, and the same test kinds position by position, the result
// keeps each step where the two agree and replaces it with a wildcard
// where they differ. This is the paper's rule: from
// /regions/namerica/item/quantity and /regions/africa/item/quantity it
// produces /regions/*/item/quantity, and one more application against
// /regions/samerica/item/price produces /regions/*/item/*.
//
// The boolean result is false when the patterns are not shape-compatible
// or when the LUB would equal one of the inputs (no new pattern).
func PairwiseLUB(p, q Pattern) (Pattern, bool) {
	if len(p.Steps) != len(q.Steps) || len(p.Steps) == 0 {
		return Pattern{}, false
	}
	steps := make([]Step, len(p.Steps))
	diff := false
	for i := range p.Steps {
		a, b := p.Steps[i], q.Steps[i]
		if a.Axis != b.Axis || a.Kind != b.Kind {
			return Pattern{}, false
		}
		steps[i] = a
		if a.Name != b.Name {
			steps[i].Name = "" // wildcard
			diff = true
		}
	}
	if !diff {
		return Pattern{}, false
	}
	out := FromSteps(steps)
	if out.Equal(p) || out.Equal(q) {
		return Pattern{}, false
	}
	return out, true
}

// SharedConcreteSteps counts positions where p and q carry the same
// concrete (non-wildcard) name. The advisor can require a minimum overlap
// before accepting a PairwiseLUB, to avoid generalizing unrelated patterns
// into uselessly broad indexes.
func SharedConcreteSteps(p, q Pattern) int {
	n := 0
	if len(p.Steps) != len(q.Steps) {
		return 0
	}
	for i := range p.Steps {
		if p.Steps[i].Name != "" && p.Steps[i] == q.Steps[i] {
			n++
		}
	}
	return n
}

// WildcardAt returns a copy of p whose i-th step's name test is replaced
// by a wildcard. The boolean is false if the step is text() or already a
// wildcard.
func WildcardAt(p Pattern, i int) (Pattern, bool) {
	if i < 0 || i >= len(p.Steps) {
		return Pattern{}, false
	}
	st := p.Steps[i]
	if st.Kind == TestText || st.Name == "" {
		return Pattern{}, false
	}
	st.Name = ""
	return p.WithStep(i, st), true
}

// DescendantLeaf returns the maximally label-preserving generalization of
// p: the single-step pattern //leaf (e.g. /site/regions/namerica/item ->
// //item, /a/b/@id -> //@id). These patterns sit near the roots of the
// generalization DAG.
func DescendantLeaf(p Pattern) (Pattern, bool) {
	if p.IsZero() {
		return Pattern{}, false
	}
	last := p.Last()
	last.Axis = Descendant
	out := FromSteps([]Step{last})
	if out.Equal(p) {
		return Pattern{}, false
	}
	return out, true
}

// UniversalFor returns the universal pattern of the given kind: "//*" for
// elements, "//@*" for attributes, "//text()" for text. It is the DAG root
// for its kind and the virtual-index pattern planted by the Enumerate
// Indexes optimizer mode.
func UniversalFor(kind TestKind) Pattern {
	return FromSteps([]Step{{Axis: Descendant, Kind: kind}})
}

// RelaxAxisAt returns a copy of p whose i-th step's axis is relaxed from
// child to descendant (/a/b -> /a//b). The boolean is false if the axis is
// already descendant. Axis relaxation is an optional generalization rule;
// it strictly grows the matched path set.
func RelaxAxisAt(p Pattern, i int) (Pattern, bool) {
	if i < 0 || i >= len(p.Steps) {
		return Pattern{}, false
	}
	st := p.Steps[i]
	if st.Axis == Descendant {
		return Pattern{}, false
	}
	st.Axis = Descendant
	return p.WithStep(i, st), true
}

// Dedupe returns pats with structural duplicates removed, preserving the
// order of first occurrence.
func Dedupe(pats []Pattern) []Pattern {
	seen := make(map[string]bool, len(pats))
	out := pats[:0:0]
	for _, p := range pats {
		key := p.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}
