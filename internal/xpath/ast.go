// Package xpath implements the XPath subset used by the query front ends
// and the executor: linear location paths with child/descendant axes,
// element/attribute/text node tests, and predicates built from value
// comparisons, existence tests, contains(), and/or/not.
//
// This is the fragment DB2's XML index matching understands (reference [1]
// of the paper); richer XPath/XQuery features exist in the language but
// cannot use value indexes, so the advisor never sees them.
//
// Lex is the one lexer of query text: the path grammar here, querylang's
// XQuery clauses and its SQL/XML statement scan all read its tokens.
package xpath

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
	"repro/internal/sqltype"
)

// Step is one location step, with optional predicates.
type Step struct {
	Axis  pattern.Axis
	Kind  pattern.TestKind
	Name  string // empty = wildcard for element/attribute tests
	Preds []BoolExpr
}

// PathExpr is a linear location path. Relative paths (no leading slash,
// or a leading "./" or ".//") are evaluated from a context node; absolute
// paths from the document.
type PathExpr struct {
	Relative bool
	Steps    []Step
	// Dot marks the path "." (the context node itself; Steps empty).
	Dot bool
}

// BoolExpr is a predicate expression.
type BoolExpr interface {
	exprNode()
	String() string
}

// Comparison compares the value of a relative path (or ".") against a
// typed literal, with XPath existential semantics: true if any node
// selected by Path satisfies the comparison.
type Comparison struct {
	Path  *PathExpr
	Op    sqltype.CmpOp
	Value sqltype.Value
}

// ExistsExpr is a bare relative path used as a predicate: true if the
// path selects at least one node.
type ExistsExpr struct {
	Path *PathExpr
}

// AndExpr is a conjunction.
type AndExpr struct{ L, R BoolExpr }

// OrExpr is a disjunction.
type OrExpr struct{ L, R BoolExpr }

// NotExpr is a negation: not(expr).
type NotExpr struct{ E BoolExpr }

func (*Comparison) exprNode() {}
func (*ExistsExpr) exprNode() {}
func (*AndExpr) exprNode()    {}
func (*OrExpr) exprNode()     {}
func (*NotExpr) exprNode()    {}

// String renders the comparison in query syntax.
func (c *Comparison) String() string {
	if c.Op == sqltype.ContainsSubstr {
		return fmt.Sprintf("contains(%s, %s)", c.Path, quoteValue(c.Value))
	}
	return fmt.Sprintf("%s %s %s", c.Path, c.Op, quoteValue(c.Value))
}

// quoteValue renders a literal in the query language's own syntax. The
// language has no escape sequences: a string literal is delimited by
// whichever quote character it does not contain. Literals obtained by
// parsing always satisfy that (the source delimiter cannot appear
// inside), so parsed expressions render reparseably; only hand-built
// values containing both quote kinds fall back to Go quoting, which is
// for display only.
func quoteValue(v sqltype.Value) string {
	if v.Type != sqltype.Varchar {
		return v.String()
	}
	if !strings.Contains(v.S, `"`) {
		return `"` + v.S + `"`
	}
	if !strings.Contains(v.S, "'") {
		return "'" + v.S + "'"
	}
	return fmt.Sprintf("%q", v.S)
}

// String renders the existence test.
func (e *ExistsExpr) String() string { return e.Path.String() }

// String renders the conjunction.
func (a *AndExpr) String() string { return fmt.Sprintf("(%s and %s)", a.L, a.R) }

// String renders the disjunction.
func (o *OrExpr) String() string { return fmt.Sprintf("(%s or %s)", o.L, o.R) }

// String renders the negation.
func (n *NotExpr) String() string { return fmt.Sprintf("not(%s)", n.E) }

// String renders the path in query syntax, including predicates.
func (p *PathExpr) String() string {
	if p.Dot {
		return "."
	}
	var sb strings.Builder
	for i, st := range p.Steps {
		sep := "/"
		if st.Axis == pattern.Descendant {
			sep = "//"
		}
		if i == 0 && p.Relative {
			if st.Axis == pattern.Child {
				sep = ""
			} else {
				sep = ".//"
			}
		}
		sb.WriteString(sep)
		sb.WriteString((pattern.Step{Axis: st.Axis, Kind: st.Kind, Name: st.Name}).String())
		for _, pr := range st.Preds {
			sb.WriteByte('[')
			sb.WriteString(pr.String())
			sb.WriteByte(']')
		}
	}
	return sb.String()
}

// LinearPattern strips predicates and returns the pattern of the path's
// own steps. For relative paths the pattern is rooted at the (caller-
// provided) context; use pattern.Pattern concatenation via AppendTo.
func (p *PathExpr) LinearPattern() pattern.Pattern {
	return p.AppendTo(pattern.Pattern{})
}

// AppendTo appends this path's steps to a prefix pattern, producing the
// absolute pattern of the nodes the path selects when evaluated from
// nodes matching the prefix. A "." path returns the prefix unchanged.
func (p *PathExpr) AppendTo(prefix pattern.Pattern) pattern.Pattern {
	if p.Dot {
		return prefix
	}
	steps := make([]pattern.Step, 0, prefix.Len()+len(p.Steps))
	steps = append(steps, prefix.Steps...)
	for _, st := range p.Steps {
		steps = append(steps, pattern.Step{Axis: st.Axis, Kind: st.Kind, Name: st.Name})
	}
	return pattern.FromSteps(steps)
}

// HasPredicates reports whether any step carries a predicate.
func (p *PathExpr) HasPredicates() bool {
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return true
		}
	}
	return false
}
