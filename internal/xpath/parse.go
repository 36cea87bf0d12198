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
		return nil, p.errf("expected step, found %q", p.tok.Text)
	case p.tok.Kind != TokEOF:
		return nil, p.errf("trailing input at %q", p.tok.Text)
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
	host  Host
	cond  bool
	depth int // bracket nesting
}

func newParser(src string, off int, cond bool, h Host) *parser {
	p := &parser{src: src, last: off, host: h, cond: cond}
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

// isName reports whether t can name a step here: an identifier that is
// not a host keyword outside brackets.
func (p *parser) isName(t Token) bool {
	return t.Kind == TokIdent && (p.depth > 0 || !slices.Contains(p.host.Keywords, t.Text))
}

// startsStep and startsPath report whether the next token can begin a
// step or a path.
func (p *parser) startsStep() bool {
	return p.isName(p.tok) || p.tok.Kind == TokStar || p.tok.Kind == TokAt
}

func (p *parser) startsPath() bool {
	k := p.tok.Kind
	return p.startsStep() || k == TokDot || k == TokSlash || k == TokDSlash
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
	name, end := "", p.tok.Pos
	if p.tok.Kind == TokVar {
		t := p.next()
		name, end = t.Text, t.End
	}
	base, err := p.host.Var(name)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	var rel *PathExpr
	switch {
	case !base.Relative:
		slash := p.tok.Kind == TokSlash || p.tok.Kind == TokDSlash
		if !(slash && p.tok.Pos == end || p.startsStep()) {
			return nil, p.errf("expected a path after $%s, found %q", name, p.tok.Text)
		}
		rel, err = p.parsePath()
	case p.tok.Kind == TokSlash:
		p.next()
		if p.cond && p.tok.Kind == TokDot {
			return nil, p.errf("expected step after $%s/", name)
		}
		rel, err = p.parsePath()
	case p.tok.Kind == TokDSlash || !p.cond && p.startsPath():
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
		case p.isName(nt):
			p.next()
			st.Kind = pattern.TestAttr
			st.Name = nt.Text
		default:
			return st, p.errf("expected attribute name after @")
		}
	case p.isName(t):
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
