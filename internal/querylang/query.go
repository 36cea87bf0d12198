// Package querylang implements the two query front ends the paper's
// advisor supports through the optimizer — an XQuery subset (FLWOR) and a
// SQL/XML subset (XMLEXISTS/XMLQUERY) — and their normalization into the
// logical form the optimizer consumes: a binding path plus conjunctive
// conditions, flattened into index-matchable "legs".
//
// Neither front end has a lexer of its own: XQuery clauses and SQL/XML
// statements are read from xpath.Lex's tokens, the one lexer of query
// text, and every path and condition is parsed by xpath.ParsePrefix.
package querylang

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/xpath"
)

// Lang identifies the source language of a query.
type Lang uint8

const (
	// LangXQuery is the FLWOR subset.
	LangXQuery Lang = iota
	// LangSQLXML is the SQL/XML subset.
	LangSQLXML
)

// String names the language.
func (l Lang) String() string {
	if l == LangSQLXML {
		return "SQL/XML"
	}
	return "XQuery"
}

// Query is a normalized query. Semantics:
//   - Binding selects the result-driving nodes in each document (with
//     inline predicates applied).
//   - Where, if non-nil, further filters binding nodes (paths inside are
//     relative to the binding node).
//   - DocConds are absolute paths that must each select at least one node
//     in the document (extra XMLEXISTS conjuncts).
//   - Returns are extraction paths relative to the binding node;
//     DocReturns are absolute extraction paths (XMLQUERY).
//   - PerDocument indicates SQL row semantics: one result row per
//     qualifying document rather than per binding node.
//
// A Query must not be copied or have its fields changed once Legs has
// been called: the legs are derived once and kept.
type Query struct {
	ID         string
	Text       string
	Lang       Lang
	Collection string

	Binding    *xpath.PathExpr
	Where      xpath.BoolExpr
	DocConds   []*xpath.PathExpr
	Returns    []*xpath.PathExpr
	DocReturns []*xpath.PathExpr

	PerDocument bool

	legsOnce sync.Once
	legs     []Leg
}

// Leg is one index-matchable path of a query: an absolute linear pattern
// plus the comparison applied to it. The optimizer matches indexes
// against legs; the Enumerate Indexes mode reports legs as candidates.
type Leg struct {
	Pattern pattern.Pattern
	Op      sqltype.CmpOp
	Value   sqltype.Value

	// Output marks extraction (return-clause) legs.
	Output bool
	// Disjunct marks legs that appear under an OR (or inside not());
	// they are enumeration candidates but cannot anchor an index-AND
	// plan on their own.
	Disjunct bool
	// OrGroup (> 0) groups the disjuncts of one positively-occurring OR
	// whose branches are all simple comparisons/existence tests. If
	// every leg of a group has a covering index, the optimizer can
	// answer the whole OR by index ORing (union of the member scans).
	// Legs under NOT, or in ORs containing nested ANDs, have OrGroup 0.
	OrGroup int
}

// Key returns a deduplication key for the leg.
func (l Leg) Key() string {
	out := ""
	if l.Output {
		out = "|out"
	}
	return fmt.Sprintf("%s|%s|%s%s", l.Pattern, l.Op, l.Value, out)
}

// String renders the leg for display.
func (l Leg) String() string {
	var sb strings.Builder
	sb.WriteString(l.Pattern.String())
	if l.Op != sqltype.Exists {
		fmt.Fprintf(&sb, " %s %s", l.Op, l.Value)
	}
	if l.Output {
		sb.WriteString(" (output)")
	}
	if l.Disjunct {
		sb.WriteString(" (disjunct)")
	}
	return sb.String()
}

// Legs returns the query's index-matchable legs, deduplicated, in a
// deterministic order: binding legs, predicate legs, doc-condition legs,
// output legs. They are derived on the first call and shared by every
// later one, so the returned slice is read-only. Legs is safe for
// concurrent use.
func (q *Query) Legs() []Leg {
	q.legsOnce.Do(func() { q.legs = q.deriveLegs() })
	return q.legs
}

// deriveLegs normalizes the query into its legs.
func (q *Query) deriveLegs() []Leg {
	var out []Leg
	seen := map[string]bool{}
	add := func(l Leg) {
		if l.Pattern.IsZero() {
			return
		}
		// Normalize: an element's indexed value is its text, so a leg
		// on .../text() is served by an index on the parent element.
		if last := l.Pattern.Last(); last.Kind == pattern.TestText && l.Pattern.Len() > 1 {
			l.Pattern = l.Pattern.Prefix(l.Pattern.Len() - 1)
		}
		k := l.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, l)
		}
	}

	lc := &legCollector{add: add}
	bindPat := q.Binding.LinearPattern()
	// The binding path itself is a structural (existence) leg.
	add(Leg{Pattern: bindPat, Op: sqltype.Exists})
	// Inline predicates along the binding path.
	lc.collectPath(q.Binding, pattern.Pattern{}, false, 0)
	// Where conditions, relative to the binding.
	if q.Where != nil {
		lc.collectBool(q.Where, bindPat, false, 0)
	}
	// Document-level conjuncts.
	for _, dc := range q.DocConds {
		add(Leg{Pattern: dc.LinearPattern(), Op: sqltype.Exists})
		lc.collectPath(dc, pattern.Pattern{}, false, 0)
	}
	// Extraction legs.
	for _, r := range q.Returns {
		add(Leg{Pattern: r.AppendTo(bindPat), Op: sqltype.Exists, Output: true})
	}
	for _, r := range q.DocReturns {
		add(Leg{Pattern: r.LinearPattern(), Op: sqltype.Exists, Output: true})
	}
	return out
}

// legCollector walks predicate trees emitting legs; it owns the OR-group
// counter so group IDs are unique across the whole query.
type legCollector struct {
	add       func(Leg)
	nextGroup int
}

// collectPath walks a path expression and emits a leg for every
// comparison or existence test in its step predicates. prefix is the
// absolute pattern of the path's context ({} for absolute paths).
func (lc *legCollector) collectPath(e *xpath.PathExpr, prefix pattern.Pattern, disjunct bool, group int) {
	steps := make([]pattern.Step, 0, prefix.Len()+len(e.Steps))
	steps = append(steps, prefix.Steps...)
	for _, st := range e.Steps {
		steps = append(steps, pattern.Step{Axis: st.Axis, Kind: st.Kind, Name: st.Name})
		if len(st.Preds) == 0 {
			continue
		}
		cur := pattern.FromSteps(append([]pattern.Step(nil), steps...))
		for _, pr := range st.Preds {
			lc.collectBool(pr, cur, disjunct, group)
		}
	}
}

// orPure reports whether the OR subtree consists solely of nested ORs
// over comparisons and existence tests — the shape index ORing can
// answer (a union of member scans covers exactly the OR's semantics).
func orPure(e xpath.BoolExpr) bool {
	switch x := e.(type) {
	case *xpath.OrExpr:
		return orPure(x.L) && orPure(x.R)
	case *xpath.Comparison, *xpath.ExistsExpr:
		return true
	default:
		return false
	}
}

// collectBool emits legs for every comparison within a predicate
// expression. Everything under an OR or NOT is marked Disjunct: such a
// condition alone cannot restrict the result. Pure ORs in positive
// positions additionally receive an OrGroup so the optimizer can
// consider index ORing across all their disjuncts.
func (lc *legCollector) collectBool(e xpath.BoolExpr, prefix pattern.Pattern, disjunct bool, group int) {
	switch x := e.(type) {
	case *xpath.AndExpr:
		// An AND below an OR makes the group impure; orPure prevents
		// reaching here with group != 0.
		lc.collectBool(x.L, prefix, disjunct, 0)
		lc.collectBool(x.R, prefix, disjunct, 0)
	case *xpath.OrExpr:
		g := group
		if g == 0 && !disjunct && orPure(x) {
			lc.nextGroup++
			g = lc.nextGroup
		}
		lc.collectBool(x.L, prefix, true, g)
		lc.collectBool(x.R, prefix, true, g)
	case *xpath.NotExpr:
		lc.collectBool(x.E, prefix, true, 0)
	case *xpath.ExistsExpr:
		lc.add(Leg{Pattern: x.Path.AppendTo(prefix), Op: sqltype.Exists, Disjunct: disjunct, OrGroup: group})
		lc.collectPath(x.Path, prefix, true, 0)
	case *xpath.Comparison:
		lc.add(Leg{
			Pattern:  x.Path.AppendTo(prefix),
			Op:       x.Op,
			Value:    x.Value,
			Disjunct: disjunct,
			OrGroup:  group,
		})
		lc.collectPath(x.Path, prefix, true, 0)
	}
}

// ParseAuto guesses the language from the text: SELECT ... means SQL/XML,
// anything else XQuery.
func ParseAuto(text string) (*Query, error) {
	trimmed := strings.TrimSpace(text)
	if len(trimmed) >= 6 && strings.EqualFold(trimmed[:6], "SELECT") {
		return ParseSQLXML(text)
	}
	return ParseXQuery(text)
}
