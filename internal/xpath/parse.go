package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/pattern"
	"repro/internal/sqltype"
)

// Parse parses a path expression such as
//
//	/site/regions/*/item[quantity > 5 and contains(name, "bike")]/name
//	//person[profile/@income >= 50000]
//	open_auctions/open_auction[initial > 100]   (relative)
//	.                                           (context node)
//
// String literals that parse as dates are typed DATE so date indexes can
// match them; numbers are DOUBLE; other strings are VARCHAR.
func Parse(src string) (*PathExpr, error) {
	p := newParser(src, 0, false, Host{})
	e, err := p.top()
	switch {
	case err != nil:
		return nil, err
	case e == nil:
		return nil, p.errf("expected step, found %q", p.tok.text)
	case p.tok.kind != tEOF:
		return nil, p.errf("trailing input at %q", p.tok.text)
	}
	return e.(*ExistsExpr).Path, nil
}

// MustParse parses src and panics on error, for tests and generators.
func MustParse(src string) *PathExpr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Host describes the query language a path or condition is embedded in.
type Host struct {
	// Var resolves `$name` to the path the variable stands for: relative
	// to the query's context node (XQuery), or the document root, an
	// absolute path without steps (SQL/XML's PASSING variable). With Var
	// set, every path outside brackets is a variable path, and one written
	// without `$name` continues the unnamed variable `$`. Inside brackets
	// paths are relative and `$` is an error.
	Var func(name string) (*PathExpr, error)
	// Keywords are the host's clause keywords: outside brackets a path
	// ends before one, and no step is named by one.
	Keywords []string
}

// ParsePrefix parses the path (cond false) or boolean condition (cond
// true) that starts at byte off of src and returns it with the offset
// just past the last byte it read. The expression ends at the first
// token or character that cannot continue it, such as a host keyword,
// `,`, `)` or `}`. A path comes back as an *ExistsExpr; in path mode a
// nil expression means that no path starts at off.
//
// The text after a variable depends on what the variable stands for and
// where the path is. After the document root an absolute path follows,
// its leading slash optional but, when written, directly after the name:
// `$d/a` and `$d a` parse, `$d /a` does not. In a path after any other
// variable, a relative path follows, optionally after one `/`: `$v/a`,
// `$v//a`, `$v a` and `$v/.` all parse. In a condition only `/` and `//`
// continue a variable, and its steps take no predicates.
func ParsePrefix(src string, off int, cond bool, h Host) (BoolExpr, int, error) {
	p := newParser(src, off, cond, h)
	e, err := p.top()
	return e, p.last, err
}

type tokKind uint8

const (
	tEOF tokKind = iota
	tSlash
	tDSlash
	tIdent  // name, possibly with : - . inside
	tAt     // @
	tStar   // *
	tLBrack // [
	tRBrack // ]
	tLParen // (
	tRParen // )
	tComma
	tDot
	tNumber
	tString
	tOp  // = != < <= > >=
	tVar // $name; text is the name
	tBad // a character no token starts with, or an unterminated string
)

type token struct {
	kind     tokKind
	text     string
	pos, end int
}

// punct and punctKind map the one-character tokens to their kinds.
const punct = "@*[](),."

var punctKind = [len(punct)]tokKind{tAt, tStar, tLBrack, tRBrack, tLParen, tRParen, tComma, tDot}

// lex returns the token at the first non-blank byte at or after i.
func (p *parser) lex(i int) token {
	src := p.src
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i >= len(src) {
		return token{tEOF, "", len(src), len(src)}
	}
	tok := func(k tokKind, n int) token { return token{k, src[i : i+n], i, i + n} }
	c := src[i]
	twoEq := i+1 < len(src) && src[i+1] == '='
	switch {
	case c == '/':
		if i+1 < len(src) && src[i+1] == '/' {
			return tok(tDSlash, 2)
		}
		return tok(tSlash, 1)
	case c == '=':
		return tok(tOp, 1)
	case c == '!' && twoEq, (c == '<' || c == '>') && twoEq:
		return tok(tOp, 2)
	case c == '<' || c == '>':
		return tok(tOp, 1)
	case c == '\'' || c == '"':
		j := strings.IndexByte(src[i+1:], c)
		if j < 0 {
			return token{tBad, src[i:], i, len(src)}
		}
		return token{tString, src[i+1 : i+1+j], i, i + j + 2}
	case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(src[i+1])):
		j := i + 1
		for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
			((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
			j++
		}
		return tok(tNumber, j-i)
	case c == '$' || isIdentStart(c):
		j := i + 1
		for j < len(src) && isIdentChar(src[j]) {
			j++
		}
		if c == '$' {
			return token{tVar, src[i+1 : j], i, j}
		}
		return tok(tIdent, j-i)
	}
	if k := strings.IndexByte(punct, c); k >= 0 {
		return tok(punctKind[k], 1)
	}
	return tok(tBad, 1)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c == '-' || c == '.' || c == ':' || isDigit(c)
}

type parser struct {
	src   string
	tok   token // the next unread token
	last  int   // offset just past the last token read
	host  Host
	cond  bool
	depth int // bracket nesting
}

func newParser(src string, off int, cond bool, h Host) *parser {
	p := &parser{src: src, last: off, host: h, cond: cond}
	p.tok = p.lex(off)
	return p
}

// next consumes one token, saturating at EOF so error paths that consume
// blindly never read past the source.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tEOF {
		p.last = t.end
		p.tok = p.lex(t.end)
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xpath: %s (in %q)", fmt.Sprintf(format, args...), p.src)
}

// isName reports whether t can name a step here: an identifier that is
// not a host keyword outside brackets.
func (p *parser) isName(t token) bool {
	return t.kind == tIdent && (p.depth > 0 || !slices.Contains(p.host.Keywords, t.text))
}

// startsStep and startsPath report whether the next token can begin a
// step or a path.
func (p *parser) startsStep() bool {
	return p.isName(p.tok) || p.tok.kind == tStar || p.tok.kind == tAt
}

func (p *parser) startsPath() bool {
	k := p.tok.kind
	return p.startsStep() || k == tDot || k == tSlash || k == tDSlash
}

// top parses the whole expression of the parser's mode.
func (p *parser) top() (BoolExpr, error) {
	switch {
	case p.cond:
		return p.parseOr()
	case p.host.Var == nil && !p.startsPath():
		return nil, nil
	}
	path, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &ExistsExpr{Path: path}, nil
}

// operand parses a path: a variable path outside brackets when the host
// has variables, a plain path otherwise.
func (p *parser) operand() (*PathExpr, error) {
	if p.depth == 0 && p.host.Var != nil {
		return p.varPath()
	}
	return p.parsePath()
}

// varPath parses `$name` (or nothing, for the unnamed variable) and the
// path that continues it, by the rules ParsePrefix lists.
func (p *parser) varPath() (*PathExpr, error) {
	name, end := "", p.tok.pos
	if p.tok.kind == tVar {
		t := p.next()
		name, end = t.text, t.end
	}
	base, err := p.host.Var(name)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	var rel *PathExpr
	switch {
	case !base.Relative:
		slash := p.tok.kind == tSlash || p.tok.kind == tDSlash
		if !(slash && p.tok.pos == end || p.startsStep()) {
			return nil, p.errf("expected a path after $%s, found %q", name, p.tok.text)
		}
		rel, err = p.parsePath()
	case p.tok.kind == tSlash:
		p.next()
		if p.cond && p.tok.kind == tDot {
			return nil, p.errf("expected step after $%s/", name)
		}
		rel, err = p.parsePath()
	case p.tok.kind == tDSlash || !p.cond && p.startsPath():
		rel, err = p.parsePath()
	}
	switch {
	case err != nil:
		return nil, err
	case p.cond && rel != nil && rel.HasPredicates():
		return nil, p.errf("a path after $%s in a condition takes no predicates", name)
	}
	return join(base, rel), nil
}

// join continues base with the steps of rel; rel's own absoluteness is
// dropped.
func join(base, rel *PathExpr) *PathExpr {
	switch {
	case rel == nil || rel.Dot:
		return base
	case base.Dot:
		return &PathExpr{Relative: true, Steps: rel.Steps}
	}
	steps := append(append([]Step(nil), base.Steps...), rel.Steps...)
	return &PathExpr{Relative: base.Relative, Steps: steps}
}

// parsePath parses a linear path with its predicates.
func (p *parser) parsePath() (*PathExpr, error) {
	expr := &PathExpr{Relative: true}
	// "." alone.
	if p.tok.kind == tDot {
		p.next()
		expr.Dot = true
		if p.tok.kind == tSlash || p.tok.kind == tDSlash {
			// "./a/b": continue with relative steps.
			expr.Dot = false
		} else {
			return expr, nil
		}
	}
	first := true
	for {
		axis := pattern.Child
		switch p.tok.kind {
		case tSlash:
			p.next()
			if first {
				expr.Relative = false
			}
		case tDSlash:
			p.next()
			axis = pattern.Descendant
			if first {
				expr.Relative = false
			}
		default:
			if !first {
				return expr, nil
			}
			// Relative path starting directly with a name test.
		}
		st, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		expr.Steps = append(expr.Steps, st)
		first = false
		if p.tok.kind != tSlash && p.tok.kind != tDSlash {
			return expr, nil
		}
	}
}

func (p *parser) parseStep(axis pattern.Axis) (Step, error) {
	st := Step{Axis: axis}
	switch t := p.tok; {
	case t.kind == tStar:
		p.next()
		st.Kind = pattern.TestElem
	case t.kind == tAt:
		p.next()
		switch nt := p.tok; {
		case nt.kind == tStar:
			p.next()
			st.Kind = pattern.TestAttr
		case p.isName(nt):
			p.next()
			st.Kind = pattern.TestAttr
			st.Name = nt.text
		default:
			return st, p.errf("expected attribute name after @")
		}
	case p.isName(t):
		p.next()
		if t.text == "text" && p.tok.kind == tLParen {
			p.next()
			if p.tok.kind != tRParen {
				return st, p.errf("expected ) after text(")
			}
			p.next()
			st.Kind = pattern.TestText
		} else {
			st.Kind = pattern.TestElem
			st.Name = t.text
		}
	default:
		return st, p.errf("expected step, found %q", t.text)
	}
	// Predicates.
	for p.tok.kind == tLBrack {
		p.next()
		p.depth++
		e, err := p.parseOr()
		p.depth--
		if err != nil {
			return st, err
		}
		if p.tok.kind != tRBrack {
			return st, p.errf("expected ] after predicate")
		}
		p.next()
		st.Preds = append(st.Preds, e)
	}
	return st, nil
}

func (p *parser) parseOr() (BoolExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tIdent && p.tok.text == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (BoolExpr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tIdent && p.tok.text == "and" {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (BoolExpr, error) {
	t := p.tok
	call := t.kind == tIdent && p.lex(t.end).kind == tLParen
	switch {
	case t.kind == tLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, p.errf("expected )")
		}
		p.next()
		return e, nil
	case call && t.text == "not":
		p.next()
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, p.errf("expected ) after not(")
		}
		p.next()
		return &NotExpr{E: e}, nil
	case call && t.text == "contains":
		p.next()
		p.next()
		path, err := p.operand()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tComma {
			return nil, p.errf("expected , in contains()")
		}
		p.next()
		lit := p.next()
		if lit.kind != tString {
			return nil, p.errf("contains() needs a string literal")
		}
		if p.tok.kind != tRParen {
			return nil, p.errf("expected ) after contains()")
		}
		p.next()
		return &Comparison{
			Path:  path,
			Op:    sqltype.ContainsSubstr,
			Value: sqltype.Value{Type: sqltype.Varchar, S: lit.text},
		}, nil
	}
	// A path, optionally compared to a literal.
	path, err := p.operand()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tOp {
		return &ExistsExpr{Path: path}, nil
	}
	op := cmpOps[p.next().text]
	val, err := literalValue(p.next())
	if err != nil {
		return nil, p.errf("%v", err)
	}
	return &Comparison{Path: path, Op: op, Value: val}, nil
}

// cmpOps maps every tOp spelling to its operator.
var cmpOps = map[string]sqltype.CmpOp{
	"=": sqltype.Eq, "!=": sqltype.Ne, "<": sqltype.Lt, "<=": sqltype.Le, ">": sqltype.Gt, ">=": sqltype.Ge,
}

// literalValue types a literal: numbers are DOUBLE; strings that parse
// as dates are DATE, so DATE indexes can serve the comparison (string
// order and date order agree for ISO dates, so semantics are
// unchanged); other strings are VARCHAR.
func literalValue(t token) (sqltype.Value, error) {
	switch t.kind {
	case tNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return sqltype.Value{}, fmt.Errorf("bad number %q", t.text)
		}
		return sqltype.Value{Type: sqltype.Double, F: f}, nil
	case tString:
		if v, ok := sqltype.Cast(sqltype.Date, t.text); ok {
			return v, nil
		}
		return sqltype.Value{Type: sqltype.Varchar, S: t.text}, nil
	}
	return sqltype.Value{}, fmt.Errorf("expected literal, found %q", t.text)
}
