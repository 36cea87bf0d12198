package xpath

import (
	"fmt"
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
	p := newParser(src, 0, false, nil)
	e, err := p.parsePath()
	switch {
	case err != nil:
		return nil, err
	case p.tok.Kind != TokEOF:
		return nil, p.errf("trailing input at %q", p.tok.Text)
	}
	return e, nil
}

// MustParse parses src and panics on error, for tests and generators.
func MustParse(src string) *PathExpr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ParsePrefix parses the path (cond false) or boolean condition (cond
// true) that starts at byte off of src and returns it with the offset
// just past the last byte it read. The expression ends at the first
// token that cannot continue it, such as a clause keyword, `,`, `)` or
// `}`. A path comes back as an *ExistsExpr.
//
// Outside brackets paths follow XPath's spelling:
//   - `$name` stands alone or is followed by a path that starts with `/`
//     or `//`; blanks may come between them.
//   - A path without a variable starts with `/` or `//` and continues the
//     unnamed variable `$`.
//   - In a condition, paths take no predicates.
//
// vars resolves a variable's name ("" for the unnamed one) to the path it
// stands for: a path relative to the query's context node (XQuery), or
// the document root, an absolute path without steps that a path must
// follow (SQL/XML's PASSING variable). With vars nil no variable is in
// scope: a path is absolute, and a nil expression means that no path
// starts at off. Inside brackets paths are relative, as in Parse, and
// take no variable.
func ParsePrefix(src string, off int, cond bool, vars func(name string) (*PathExpr, error)) (BoolExpr, int, error) {
	p := newParser(src, off, cond, vars)
	switch {
	case cond:
		e, err := p.parseOr()
		return e, p.last, err
	case vars == nil && p.tok.Kind != TokSlash && p.tok.Kind != TokDSlash:
		return nil, p.last, nil
	}
	path, err := p.varPath()
	if err != nil {
		return nil, p.last, err
	}
	return &ExistsExpr{Path: path}, p.last, nil
}

// TokKind is the kind of a Token.
type TokKind uint8

// The token kinds. Characters no token starts with, such as `{`, `}` and
// `:`, come back one at a time as TokBad.
const (
	TokEOF TokKind = iota
	TokSlash
	TokDSlash
	TokIdent  // name, possibly with : - . inside
	TokAt     // @
	TokStar   // *
	TokLBrack // [
	TokRBrack // ]
	TokLParen // (
	TokRParen // )
	TokComma
	TokDot
	TokNumber
	TokString // Text is the content, without the quotes
	TokOp     // = != < <= > >=
	TokVar    // $name; Text is the name, empty for a bare $
	TokBad    // a character no token starts with, or an unterminated string
)

// Token is one token of query text: its kind, text and byte span
// [Pos, End) in the source.
type Token struct {
	Kind     TokKind
	Text     string
	Pos, End int
}

// punct and punctKind map the one-character tokens to their kinds.
const punct = "@*[](),."

var punctKind = [len(punct)]TokKind{TokAt, TokStar, TokLBrack, TokRBrack, TokLParen, TokRParen, TokComma, TokDot}

// Lex returns the token at the first non-blank byte at or after i of
// src. It is the one lexer of query text: the XPath parser, the XQuery
// clauses and the SQL/XML statement scan all read its tokens.
func Lex(src string, i int) Token {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i >= len(src) {
		return Token{TokEOF, "", len(src), len(src)}
	}
	tok := func(k TokKind, n int) Token { return Token{k, src[i : i+n], i, i + n} }
	c := src[i]
	twoEq := i+1 < len(src) && src[i+1] == '='
	switch {
	case c == '/':
		if i+1 < len(src) && src[i+1] == '/' {
			return tok(TokDSlash, 2)
		}
		return tok(TokSlash, 1)
	case c == '=':
		return tok(TokOp, 1)
	case c == '!' && twoEq, (c == '<' || c == '>') && twoEq:
		return tok(TokOp, 2)
	case c == '<' || c == '>':
		return tok(TokOp, 1)
	case c == '\'' || c == '"':
		j := strings.IndexByte(src[i+1:], c)
		if j < 0 {
			return Token{TokBad, src[i:], i, len(src)}
		}
		return Token{TokString, src[i+1 : i+1+j], i, i + j + 2}
	case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(src[i+1])):
		j := i + 1
		for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
			((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
			j++
		}
		return tok(TokNumber, j-i)
	case c == '$' || isIdentStart(c):
		j := i + 1
		for j < len(src) && isIdentChar(src[j]) {
			j++
		}
		if c == '$' {
			return Token{TokVar, src[i+1 : j], i, j}
		}
		return tok(TokIdent, j-i)
	}
	if k := strings.IndexByte(punct, c); k >= 0 {
		return tok(punctKind[k], 1)
	}
	return tok(TokBad, 1)
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
	tok   Token // the next unread token
	last  int   // offset just past the last token read
	vars  func(name string) (*PathExpr, error)
	cond  bool
	depth int // bracket nesting
}

func newParser(src string, off int, cond bool, vars func(string) (*PathExpr, error)) *parser {
	p := &parser{src: src, last: off, vars: vars, cond: cond}
	p.tok = Lex(p.src, off)
	return p
}

// next consumes one token, saturating at EOF so error paths that consume
// blindly never read past the source.
func (p *parser) next() Token {
	t := p.tok
	if t.Kind != TokEOF {
		p.last = t.End
		p.tok = Lex(p.src, t.End)
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xpath: %s (in %q)", fmt.Sprintf(format, args...), p.src)
}

// operand parses a path: a variable path outside brackets, a plain path
// inside them.
func (p *parser) operand() (*PathExpr, error) {
	if p.depth == 0 {
		return p.varPath()
	}
	return p.parsePath()
}

// varPath parses a path outside brackets by the rule ParsePrefix
// states: `$name` (or nothing, for the unnamed variable) and the path
// that continues it.
func (p *parser) varPath() (*PathExpr, error) {
	name := ""
	if p.tok.Kind == TokVar {
		name = p.next().Text
	}
	base := &PathExpr{}
	if p.vars != nil {
		var err error
		if base, err = p.vars(name); err != nil {
			return nil, p.errf("%v", err)
		}
	}
	if p.tok.Kind != TokSlash && p.tok.Kind != TokDSlash {
		if !base.Relative {
			return nil, p.errf("expected a path starting with / or // after $%s, found %q", name, p.tok.Text)
		}
		return base, nil
	}
	rel, err := p.parsePath()
	switch {
	case err != nil:
		return nil, err
	case p.cond && rel.HasPredicates():
		return nil, p.errf("a path after $%s in a condition takes no predicates", name)
	}
	// rel continues base; a Dot base has no steps, so the result is
	// base's steps then rel's, as relative as base.
	steps := append(append([]Step(nil), base.Steps...), rel.Steps...)
	return &PathExpr{Relative: base.Relative, Steps: steps}, nil
}

// parsePath parses a linear path with its predicates.
func (p *parser) parsePath() (*PathExpr, error) {
	// "." alone, or "./a" and ".//a": relative steps follow.
	dot := p.tok.Kind == TokDot
	if dot {
		p.next()
		if p.tok.Kind != TokSlash && p.tok.Kind != TokDSlash {
			return &PathExpr{Relative: true, Dot: true}, nil
		}
	}
	expr := &PathExpr{Relative: dot}
	first := true
	for {
		axis := pattern.Child
		switch p.tok.Kind {
		case TokSlash:
			p.next()
		case TokDSlash:
			p.next()
			axis = pattern.Descendant
		default:
			if !first {
				return expr, nil
			}
			// Relative path starting directly with a name test.
			expr.Relative = true
		}
		st, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		expr.Steps = append(expr.Steps, st)
		first = false
		if p.tok.Kind != TokSlash && p.tok.Kind != TokDSlash {
			return expr, nil
		}
	}
}

func (p *parser) parseStep(axis pattern.Axis) (Step, error) {
	st := Step{Axis: axis}
	switch t := p.tok; {
	case t.Kind == TokStar:
		p.next()
		st.Kind = pattern.TestElem
	case t.Kind == TokAt:
		p.next()
		switch nt := p.tok; {
		case nt.Kind == TokStar:
			p.next()
			st.Kind = pattern.TestAttr
		case nt.Kind == TokIdent:
			p.next()
			st.Kind = pattern.TestAttr
			st.Name = nt.Text
		default:
			return st, p.errf("expected attribute name after @")
		}
	case t.Kind == TokIdent:
		p.next()
		if t.Text == "text" && p.tok.Kind == TokLParen {
			p.next()
			if p.tok.Kind != TokRParen {
				return st, p.errf("expected ) after text(")
			}
			p.next()
			st.Kind = pattern.TestText
		} else {
			st.Kind = pattern.TestElem
			st.Name = t.Text
		}
	default:
		return st, p.errf("expected step, found %q", t.Text)
	}
	// Predicates.
	for p.tok.Kind == TokLBrack {
		p.next()
		p.depth++
		e, err := p.parseOr()
		p.depth--
		if err != nil {
			return st, err
		}
		if p.tok.Kind != TokRBrack {
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
	for p.tok.Kind == TokIdent && p.tok.Text == "or" {
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
	for p.tok.Kind == TokIdent && p.tok.Text == "and" {
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
	call := t.Kind == TokIdent && Lex(p.src, t.End).Kind == TokLParen
	switch {
	case t.Kind == TokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != TokRParen {
			return nil, p.errf("expected )")
		}
		p.next()
		return e, nil
	case call && t.Text == "not":
		p.next()
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != TokRParen {
			return nil, p.errf("expected ) after not(")
		}
		p.next()
		return &NotExpr{E: e}, nil
	case call && t.Text == "contains":
		p.next()
		p.next()
		path, err := p.operand()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != TokComma {
			return nil, p.errf("expected , in contains()")
		}
		p.next()
		lit := p.next()
		if lit.Kind != TokString {
			return nil, p.errf("contains() needs a string literal")
		}
		if p.tok.Kind != TokRParen {
			return nil, p.errf("expected ) after contains()")
		}
		p.next()
		return &Comparison{
			Path:  path,
			Op:    sqltype.ContainsSubstr,
			Value: sqltype.Value{Type: sqltype.Varchar, S: lit.Text},
		}, nil
	}
	// A path, optionally compared to a literal.
	path, err := p.operand()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokOp {
		return &ExistsExpr{Path: path}, nil
	}
	op := cmpOps[p.next().Text]
	val, err := literalValue(p.next())
	if err != nil {
		return nil, p.errf("%v", err)
	}
	return &Comparison{Path: path, Op: op, Value: val}, nil
}

// cmpOps maps every TokOp spelling to its operator.
var cmpOps = map[string]sqltype.CmpOp{
	"=": sqltype.Eq, "!=": sqltype.Ne, "<": sqltype.Lt, "<=": sqltype.Le, ">": sqltype.Gt, ">=": sqltype.Ge,
}

// literalValue types a literal: numbers are DOUBLE; strings that parse
// as dates are DATE, so DATE indexes can serve the comparison (string
// order and date order agree for ISO dates, so semantics are
// unchanged); other strings are VARCHAR.
func literalValue(t Token) (sqltype.Value, error) {
	switch t.Kind {
	case TokNumber:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return sqltype.Value{}, fmt.Errorf("bad number %q", t.Text)
		}
		return sqltype.Value{Type: sqltype.Double, F: f}, nil
	case TokString:
		if v, ok := sqltype.Cast(sqltype.Date, t.Text); ok {
			return v, nil
		}
		return sqltype.Value{Type: sqltype.Varchar, S: t.Text}, nil
	}
	return sqltype.Value{}, fmt.Errorf("expected literal, found %q", t.Text)
}
