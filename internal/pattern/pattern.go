// Package pattern implements linear XML path patterns, the index-pattern
// language of DB2 pureXML value indexes (CREATE INDEX ... GENERATE KEY
// USING XMLPATTERN '...') that the paper's advisor recommends.
//
// A pattern is a sequence of steps. Each step has an axis — child ("/") or
// descendant-or-self-then-child ("//") — and a node test: an element name,
// the element wildcard "*", an attribute "@name", the attribute wildcard
// "@*", or "text()". Examples:
//
//	/site/regions/namerica/item/quantity
//	/site/regions/*/item/*
//	//item/@id
//	//*
//
// The package provides exact containment and intersection tests for this
// fragment (XP{/,//,*}; linear patterns, so both are PTIME via small
// automata), matching against concrete rooted paths, and the generalization
// primitives used to build the advisor's candidate DAG.
package pattern

import (
	"fmt"
	"strings"
)

// Axis is the relationship of a step to the previous one.
type Axis uint8

const (
	// Child is the "/" axis: the node is a direct child.
	Child Axis = iota
	// Descendant is the "//" axis: the node is any descendant (one or
	// more levels below, with zero or more intervening elements).
	Descendant
)

// TestKind classifies a step's node test.
type TestKind uint8

const (
	// TestElem matches element nodes (Name == "" means wildcard "*").
	TestElem TestKind = iota
	// TestAttr matches attribute nodes (Name == "" means wildcard "@*").
	TestAttr
	// TestText matches text nodes ("text()").
	TestText
)

// Step is one location step of a linear pattern.
type Step struct {
	Axis Axis
	Kind TestKind
	Name string // empty means wildcard (for TestElem / TestAttr)
}

// IsWildcard reports whether the step's node test is a wildcard.
func (s Step) IsWildcard() bool {
	return s.Kind != TestText && s.Name == ""
}

// String renders the step's node test (without the axis).
func (s Step) String() string {
	switch s.Kind {
	case TestElem:
		if s.Name == "" {
			return "*"
		}
		return s.Name
	case TestAttr:
		if s.Name == "" {
			return "@*"
		}
		return "@" + s.Name
	case TestText:
		return "text()"
	}
	return "?"
}

// Pattern is a linear XML path pattern. The zero value is the empty
// (invalid) pattern; construct with Parse or MustParse.
type Pattern struct {
	Steps []Step
	str   string // cached canonical form
}

// Parse parses a pattern string. The grammar is
//
//	pattern := ("/" | "//") step (("/" | "//") step)*
//	step    := name | "*" | "@" name | "@*" | "text()"
//
// A leading "/" anchors the first step at the document root; a leading
// "//" allows it at any depth. text() and attribute steps may appear only
// in the final position (as in DB2 XMLPATTERN).
func Parse(s string) (Pattern, error) {
	orig := s
	if s == "" {
		return Pattern{}, fmt.Errorf("pattern: empty pattern")
	}
	if !strings.HasPrefix(s, "/") {
		return Pattern{}, fmt.Errorf("pattern %q: must start with / or //", orig)
	}
	var steps []Step
	for len(s) > 0 {
		axis := Child
		if strings.HasPrefix(s, "//") {
			axis = Descendant
			s = s[2:]
		} else if strings.HasPrefix(s, "/") {
			s = s[1:]
		} else {
			return Pattern{}, fmt.Errorf("pattern %q: expected / before %q", orig, s)
		}
		end := strings.IndexByte(s, '/')
		var tok string
		if end < 0 {
			tok, s = s, ""
		} else {
			tok, s = s[:end], s[end:]
		}
		step, err := parseStep(tok)
		if err != nil {
			return Pattern{}, fmt.Errorf("pattern %q: %v", orig, err)
		}
		step.Axis = axis
		steps = append(steps, step)
	}
	// The subset-simulation bitmask in the matcher is a uint64; 60 steps
	// is far beyond any real document depth.
	if len(steps) > 60 {
		return Pattern{}, fmt.Errorf("pattern %q: too many steps (%d > 60)", orig, len(steps))
	}
	for i, st := range steps {
		if (st.Kind == TestAttr || st.Kind == TestText) && i != len(steps)-1 {
			return Pattern{}, fmt.Errorf("pattern %q: %s step must be last", orig, st)
		}
	}
	return FromSteps(steps), nil
}

func parseStep(tok string) (Step, error) {
	switch {
	case tok == "":
		return Step{}, fmt.Errorf("empty step")
	case tok == "*":
		return Step{Kind: TestElem}, nil
	case tok == "@*":
		return Step{Kind: TestAttr}, nil
	case tok == "text()":
		return Step{Kind: TestText}, nil
	case strings.HasPrefix(tok, "@"):
		name := tok[1:]
		if !validName(name) {
			return Step{}, fmt.Errorf("bad attribute name %q", tok)
		}
		return Step{Kind: TestAttr, Name: name}, nil
	default:
		if !validName(tok) {
			return Step{}, fmt.Errorf("bad name test %q", tok)
		}
		return Step{Kind: TestElem, Name: tok}, nil
	}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '-' || c == '.' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9') || c >= 0x80
		if !ok {
			return false
		}
		if i == 0 && (c == '-' || c == '.' || (c >= '0' && c <= '9')) {
			return false
		}
	}
	return true
}

// MustParse parses s and panics on error; for tests and literals.
func MustParse(s string) Pattern {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p Pattern) render() string {
	var sb strings.Builder
	for _, st := range p.Steps {
		if st.Axis == Descendant {
			sb.WriteString("//")
		} else {
			sb.WriteByte('/')
		}
		sb.WriteString(st.String())
	}
	return sb.String()
}

// FromSteps returns the pattern made of steps (which it keeps, not
// copies), with the canonical form rendered once up front, so String,
// interning and containment probes never re-render it. The steps are
// not validated; Parse is the checked constructor.
func FromSteps(steps []Step) Pattern {
	p := Pattern{Steps: steps}
	p.str = p.render()
	return p
}

// String returns the canonical textual form of the pattern.
func (p Pattern) String() string {
	if p.str == "" && len(p.Steps) > 0 {
		p.str = p.render()
	}
	return p.str
}

// IsZero reports whether the pattern is the invalid zero value.
func (p Pattern) IsZero() bool { return len(p.Steps) == 0 }

// Len returns the number of steps.
func (p Pattern) Len() int { return len(p.Steps) }

// Last returns the final step. It panics on the zero pattern.
func (p Pattern) Last() Step { return p.Steps[len(p.Steps)-1] }

// Equal reports structural equality.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != q.Steps[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy whose Steps slice is independent of p's.
func (p Pattern) Clone() Pattern {
	steps := make([]Step, len(p.Steps))
	copy(steps, p.Steps)
	return Pattern{Steps: steps, str: p.str}
}

// Prefix returns the pattern made of p's first n steps, with the
// canonical form precomputed so the result interns and memoizes without
// re-rendering. It panics if n exceeds p's length; Prefix(0) is the
// zero pattern.
func (p Pattern) Prefix(n int) Pattern {
	return FromSteps(p.Steps[:n:n])
}

// WithStep returns a copy of p whose i-th step is replaced by st.
func (p Pattern) WithStep(i int, st Step) Pattern {
	steps := append([]Step(nil), p.Steps...)
	steps[i] = st
	return FromSteps(steps)
}

// WildcardCount returns the number of wildcard steps, a simple measure of
// generality used for ordering DAG construction.
func (p Pattern) WildcardCount() int {
	n := 0
	for _, st := range p.Steps {
		if st.IsWildcard() {
			n++
		}
	}
	return n
}

// DescendantCount returns the number of descendant-axis steps.
func (p Pattern) DescendantCount() int {
	n := 0
	for _, st := range p.Steps {
		if st.Axis == Descendant {
			n++
		}
	}
	return n
}

// Names returns every concrete name mentioned in the pattern.
func (p Pattern) Names() []string {
	var out []string
	for _, st := range p.Steps {
		if st.Name != "" {
			out = append(out, st.Name)
		}
	}
	return out
}

// Universal reports whether the pattern is "//*" (the virtual index pattern
// the Enumerate Indexes optimizer mode plants) or its attribute/text
// counterparts "//@*", "//text()".
func (p Pattern) Universal() bool {
	return len(p.Steps) == 1 && p.Steps[0].Axis == Descendant && p.Steps[0].Name == ""
}
