package querylang

import (
	"fmt"

	"repro/internal/xpath"
)

// ParseXQuery parses the FLWOR subset:
//
//	for $i in collection("items")/site/regions/*/item[price > 100]
//	for $b in $i/bidder
//	let $q := $i/quantity
//	where $q > 5 and contains($i/name, "bike")
//	return ($i/name, $b/increase)
//
// Supported: any number of for/let clauses (later vars bind relative to
// earlier ones), one optional where clause (and/or/not/contains/
// comparisons over var-rooted paths), and a return clause of var-rooted
// paths, a parenthesized sequence, count(...), data(...), or an element
// constructor whose {...} holes contain var-rooted paths.
//
// Every path and condition is parsed by xpath.ParsePrefix, the grammar
// SQL/XML's embedded paths share (README "Query language"). Restrictions:
// paths in where/return clauses may not carry their own [...] predicates
// (put those in the binding path), and order by / group by clauses are
// not supported. These features would not produce additional index
// candidates anyway — DB2's index matching ignores them too.
func ParseXQuery(text string) (*Query, error) {
	p := &xqParser{src: text}
	if err := p.lex(); err != nil {
		return nil, err
	}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	q.Text = text
	q.Lang = LangXQuery
	return q, nil
}

type xqTok struct {
	kind xqKind
	text string
	pos  int // byte offset in src
	end  int
}

type xqKind uint8

const (
	xqEOF xqKind = iota
	xqIdent
	xqVar    // $name
	xqString // quoted
	xqNumber
	xqOp     // = != < <= > >=
	xqAssign // :=
	xqPunct  // any single punct: / ( ) [ ] , . * @ { } <
)

type xqParser struct {
	src  string
	toks []xqTok
	pos  int

	vars map[string]*xpath.PathExpr // var -> path relative to primary binding ("" steps = the binding itself)
	q    *Query
}

func (p *xqParser) lex() error {
	src := p.src
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '$':
			j := i + 1
			for j < len(src) && (isIdentChar(src[j])) {
				j++
			}
			if j == i+1 {
				return fmt.Errorf("querylang: bare $ at %d", i)
			}
			p.toks = append(p.toks, xqTok{xqVar, src[i+1 : j], i, j})
			i = j
		case c == '\'' || c == '"':
			q := c
			j := i + 1
			for j < len(src) && src[j] != q {
				j++
			}
			if j >= len(src) {
				return fmt.Errorf("querylang: unterminated string at %d", i)
			}
			p.toks = append(p.toks, xqTok{xqString, src[i+1 : j], i, j + 1})
			i = j + 1
		case c == ':' && i+1 < len(src) && src[i+1] == '=':
			p.toks = append(p.toks, xqTok{xqAssign, ":=", i, i + 2})
			i += 2
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			p.toks = append(p.toks, xqTok{xqOp, "!=", i, i + 2})
			i += 2
		case c == '<' || c == '>':
			// Could be an operator or an element constructor '<tag>'.
			// '<' followed by a letter at clause level is a constructor;
			// the parser decides, the lexer emits ops for <=, >= and
			// bare < > otherwise.
			op := string(c)
			j := i + 1
			if j < len(src) && src[j] == '=' {
				op += "="
				j++
			}
			p.toks = append(p.toks, xqTok{xqOp, op, i, j})
			i = j
		case c == '=':
			p.toks = append(p.toks, xqTok{xqOp, "=", i, i + 1})
			i++
		case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(src[i+1])):
			j := i + 1
			for j < len(src) && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			p.toks = append(p.toks, xqTok{xqNumber, src[i:j], i, j})
			i = j
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			p.toks = append(p.toks, xqTok{xqIdent, src[i:j], i, j})
			i = j
		default:
			p.toks = append(p.toks, xqTok{xqPunct, string(c), i, i + 1})
			i++
		}
	}
	p.toks = append(p.toks, xqTok{xqEOF, "", len(src), len(src)})
	return nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') || c >= 0x80 }
func isIdentChar(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '-' || c == '.' || c == ':'
}

func (p *xqParser) peek() xqTok { return p.toks[p.pos] }

// next consumes one token, saturating at EOF so error paths that consume
// blindly can never index past the token slice.
func (p *xqParser) next() xqTok {
	t := p.toks[p.pos]
	if t.kind != xqEOF {
		p.pos++
	}
	return t
}

func (p *xqParser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == xqIdent && t.text == kw
}

func (p *xqParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("querylang: %s (near offset %d in %q)", fmt.Sprintf(format, args...), p.peek().pos, p.src)
}

func (p *xqParser) parse() (*Query, error) {
	p.q = &Query{}
	p.vars = map[string]*xpath.PathExpr{}
	sawFor := false
	for {
		switch {
		case p.isKeyword("for"):
			if err := p.parseFor(); err != nil {
				return nil, err
			}
			sawFor = true
		case p.isKeyword("let"):
			if err := p.parseLet(); err != nil {
				return nil, err
			}
		case p.isKeyword("where"):
			if !sawFor {
				return nil, p.errf("where before any for clause")
			}
			p.next()
			e, err := p.embedded(true, xpath.Host{Var: p.resolve})
			if err != nil {
				return nil, err
			}
			p.q.Where = e
		case p.isKeyword("return"):
			if !sawFor {
				return nil, p.errf("return before any for clause")
			}
			if err := p.parseReturn(); err != nil {
				return nil, err
			}
			if p.peek().kind != xqEOF {
				return nil, p.errf("trailing input after return clause")
			}
			if p.q.Binding == nil {
				return nil, p.errf("no collection()/doc() binding")
			}
			return p.q, nil
		default:
			return nil, p.errf("expected for/let/where/return, found %q", p.peek().text)
		}
	}
}

// parseFor handles: for $v in collection("c")PATH  |  for $v in $w PATH
func (p *xqParser) parseFor() error {
	p.next() // for
	v := p.next()
	if v.kind != xqVar {
		return p.errf("expected $var after for")
	}
	if !p.isKeyword("in") {
		return p.errf("expected in after for $%s", v.text)
	}
	p.next()
	return p.bindVar(v.text)
}

// parseLet handles: let $v := $w PATH
func (p *xqParser) parseLet() error {
	p.next() // let
	v := p.next()
	if v.kind != xqVar {
		return p.errf("expected $var after let")
	}
	if p.peek().kind != xqAssign {
		return p.errf("expected := in let clause")
	}
	p.next()
	if p.peek().kind != xqVar {
		return p.errf("let must bind from another variable's path")
	}
	return p.bindVar(v.text)
}

// clauseKeywords end a binding path.
var clauseKeywords = []string{"for", "let", "where", "return", "order", "stable", "group"}

func (p *xqParser) bindVar(name string) error {
	t := p.peek()
	switch {
	case t.kind == xqIdent && (t.text == "collection" || t.text == "doc"):
		p.next()
		if p.peek().text != "(" {
			return p.errf("expected ( after %s", t.text)
		}
		p.next()
		arg := p.next()
		if arg.kind != xqString {
			return p.errf("%s() needs a string argument", t.text)
		}
		if p.peek().text != ")" {
			return p.errf("expected ) after %s(...", t.text)
		}
		p.next()
		if p.q.Binding != nil {
			return p.errf("only one collection()/doc() binding is supported")
		}
		p.q.Collection = arg.text
		e, err := p.embedded(false, xpath.Host{Keywords: clauseKeywords})
		if err != nil {
			return err
		}
		p.q.Binding = xpath.MustParse("/*")
		if e != nil {
			p.q.Binding = e.(*xpath.ExistsExpr).Path
		}
		p.vars[name] = &xpath.PathExpr{Relative: true, Dot: true}
		return nil
	case t.kind == xqVar:
		e, err := p.embedded(false, xpath.Host{Var: p.resolve, Keywords: clauseKeywords})
		if err != nil {
			return err
		}
		p.vars[name] = e.(*xpath.ExistsExpr).Path
		return nil
	default:
		return p.errf("expected collection()/doc() or $var in binding")
	}
}

// resolve maps a variable to its path relative to the primary binding.
func (p *xqParser) resolve(name string) (*xpath.PathExpr, error) {
	if base, ok := p.vars[name]; ok {
		return base, nil
	}
	if name == "" {
		return nil, fmt.Errorf("expected $var")
	}
	return nil, fmt.Errorf("unknown variable $%s", name)
}

// embedded parses the path or condition that starts at the next token
// with xpath's grammar and moves past it.
func (p *xqParser) embedded(cond bool, h xpath.Host) (xpath.BoolExpr, error) {
	e, end, err := xpath.ParsePrefix(p.src, p.peek().pos, cond, h)
	if err != nil {
		return nil, fmt.Errorf("querylang: %w", err)
	}
	for p.peek().kind != xqEOF && p.peek().pos < end {
		p.pos++
	}
	return e, nil
}

// returnPath parses a $var-rooted, predicate-free return path.
func (p *xqParser) returnPath() (*xpath.PathExpr, error) {
	if p.peek().kind != xqVar {
		return nil, p.errf("expected $var, found %q", p.peek().text)
	}
	e, err := p.embedded(true, xpath.Host{Var: p.resolve})
	if err != nil {
		return nil, err
	}
	x, ok := e.(*xpath.ExistsExpr)
	if !ok {
		return nil, p.errf("return item %s is not a path", e)
	}
	return x.Path, nil
}

// parseReturn parses the return clause into extraction paths.
func (p *xqParser) parseReturn() error {
	p.next() // return
	t := p.peek()
	switch {
	case t.kind == xqPunct && t.text == "(":
		p.next()
		for {
			if err := p.parseReturnItem(); err != nil {
				return err
			}
			if p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if p.peek().text != ")" {
			return p.errf("expected ) in return sequence")
		}
		p.next()
		return nil
	case t.kind == xqOp && t.text == "<":
		// Element constructor: consume everything, extracting {...}
		// holes as return items.
		return p.parseConstructorReturn()
	default:
		return p.parseReturnItem()
	}
}

func (p *xqParser) parseReturnItem() error {
	t := p.peek()
	switch {
	case t.kind == xqIdent && (t.text == "count" || t.text == "data" || t.text == "string" || t.text == "sum" || t.text == "avg"):
		p.next()
		if p.peek().text != "(" {
			return p.errf("expected ( after %s", t.text)
		}
		p.next()
		rel, err := p.returnPath()
		if err != nil {
			return err
		}
		if p.peek().text != ")" {
			return p.errf("expected ) after %s(...", t.text)
		}
		p.next()
		if t.text == "count" || t.text == "sum" || t.text == "avg" {
			p.q.Aggregate = true
		}
		p.q.Returns = append(p.q.Returns, rel)
		return nil
	case t.kind == xqVar:
		rel, err := p.returnPath()
		if err != nil {
			return err
		}
		p.q.Returns = append(p.q.Returns, rel)
		return nil
	case t.kind == xqString:
		p.next() // literal text content: no extraction leg
		return nil
	default:
		return p.errf("unsupported return expression starting at %q", t.text)
	}
}

func (p *xqParser) parseConstructorReturn() error {
	depth := 0
	for {
		t := p.peek()
		if t.kind == xqEOF {
			if depth != 0 {
				return p.errf("unterminated element constructor")
			}
			return nil
		}
		if t.kind == xqPunct && t.text == "{" {
			depth++
			p.next()
			if err := p.parseReturnItem(); err != nil {
				return err
			}
			if p.peek().text != "}" {
				return p.errf("expected } in constructor")
			}
			depth--
			p.next()
			continue
		}
		p.next()
	}
}
