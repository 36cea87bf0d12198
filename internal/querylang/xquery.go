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
// SQL/XML's embedded paths share (README "Query language"): the path
// after collection()/doc() starts with / or // (no path means /*), and
// every other path is a variable, alone or followed by a path that
// starts with / or //. The punctuation (, ), ",", { and } is matched by
// token kind, so a quoted "(" never stands in for it. Restrictions:
// paths in where/return clauses may not carry their own [...] predicates
// (put those in the binding path), and order by / group by clauses are
// not supported. These features would not produce additional index
// candidates anyway — DB2's index matching ignores them too.
func ParseXQuery(text string) (*Query, error) {
	p := &xqParser{src: text, tok: xpath.Lex(text, 0)}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	q.Text = text
	q.Lang = LangXQuery
	return q, nil
}

// xqParser reads the clauses of a query from xpath's tokens, one token
// at a time, and hands every path and condition to xpath.ParsePrefix.
type xqParser struct {
	src string
	tok xpath.Token // the next unread token

	vars map[string]*xpath.PathExpr // var -> path relative to primary binding ("" steps = the binding itself)
	q    *Query
}

// next consumes one token, saturating at EOF so error paths that consume
// blindly never read past the source.
func (p *xqParser) next() xpath.Token {
	t := p.tok
	if t.Kind != xpath.TokEOF {
		p.tok = xpath.Lex(p.src, t.End)
	}
	return t
}

func (p *xqParser) isKeyword(kw string) bool {
	return p.tok.Kind == xpath.TokIdent && p.tok.Text == kw
}

// isVar reports whether t names a variable; a bare `$` names none.
func isVar(t xpath.Token) bool { return t.Kind == xpath.TokVar && t.Text != "" }

// isChar reports whether t is c, a character such as `:`, `{` or `}`
// that no xpath token starts with; a quoted c is a string token instead.
func isChar(t xpath.Token, c string) bool { return t.Kind == xpath.TokBad && t.Text == c }

func (p *xqParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("querylang: %s (near offset %d in %q)", fmt.Sprintf(format, args...), p.tok.Pos, p.src)
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
			e, err := p.embedded(true, p.resolve)
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
			if p.tok.Kind != xpath.TokEOF {
				return nil, p.errf("trailing input after return clause")
			}
			if p.q.Binding == nil {
				return nil, p.errf("no collection()/doc() binding")
			}
			return p.q, nil
		default:
			return nil, p.errf("expected for/let/where/return, found %q", p.tok.Text)
		}
	}
}

// parseFor handles: for $v in collection("c")PATH  |  for $v in $w PATH
func (p *xqParser) parseFor() error {
	p.next() // for
	v := p.next()
	if !isVar(v) {
		return p.errf("expected $var after for")
	}
	if !p.isKeyword("in") {
		return p.errf("expected in after for $%s", v.Text)
	}
	p.next()
	return p.bindVar(v.Text)
}

// parseLet handles: let $v := $w PATH
func (p *xqParser) parseLet() error {
	p.next() // let
	v := p.next()
	if !isVar(v) {
		return p.errf("expected $var after let")
	}
	// `:=` lexes as `:` (a character no token starts with) and `=`.
	colon := p.next()
	if !isChar(colon, ":") || p.tok.Kind != xpath.TokOp || p.tok.Text != "=" || p.tok.Pos != colon.End {
		return p.errf("expected := in let clause")
	}
	p.next()
	if !isVar(p.tok) {
		return p.errf("let must bind from another variable's path")
	}
	return p.bindVar(v.Text)
}

func (p *xqParser) bindVar(name string) error {
	t := p.tok
	switch {
	case t.Kind == xpath.TokIdent && (t.Text == "collection" || t.Text == "doc"):
		p.next()
		if p.tok.Kind != xpath.TokLParen {
			return p.errf("expected ( after %s", t.Text)
		}
		p.next()
		arg := p.next()
		if arg.Kind != xpath.TokString {
			return p.errf("%s() needs a string argument", t.Text)
		}
		if p.tok.Kind != xpath.TokRParen {
			return p.errf("expected ) after %s(...", t.Text)
		}
		p.next()
		if p.q.Binding != nil {
			return p.errf("only one collection()/doc() binding is supported")
		}
		p.q.Collection = arg.Text
		e, err := p.embedded(false, nil)
		if err != nil {
			return err
		}
		p.q.Binding = xpath.MustParse("/*")
		if e != nil {
			p.q.Binding = e.(*xpath.ExistsExpr).Path
		}
		p.vars[name] = &xpath.PathExpr{Relative: true, Dot: true}
		return nil
	case isVar(t):
		e, err := p.embedded(false, p.resolve)
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
// with xpath's grammar, its variables resolved by vars, and resumes at
// the offset where it ends.
func (p *xqParser) embedded(cond bool, vars func(string) (*xpath.PathExpr, error)) (xpath.BoolExpr, error) {
	e, end, err := xpath.ParsePrefix(p.src, p.tok.Pos, cond, vars)
	if err != nil {
		return nil, fmt.Errorf("querylang: %w", err)
	}
	p.tok = xpath.Lex(p.src, end)
	return e, nil
}

// returnPath parses a $var-rooted, predicate-free return path.
func (p *xqParser) returnPath() (*xpath.PathExpr, error) {
	if !isVar(p.tok) {
		return nil, p.errf("expected $var, found %q", p.tok.Text)
	}
	e, err := p.embedded(true, p.resolve)
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
	t := p.tok
	switch {
	case t.Kind == xpath.TokLParen:
		p.next()
		for {
			if err := p.parseReturnItem(); err != nil {
				return err
			}
			if p.tok.Kind == xpath.TokComma {
				p.next()
				continue
			}
			break
		}
		if p.tok.Kind != xpath.TokRParen {
			return p.errf("expected ) in return sequence")
		}
		p.next()
		return nil
	case t.Kind == xpath.TokOp && t.Text == "<":
		// Element constructor: consume everything, extracting {...}
		// holes as return items.
		return p.parseConstructorReturn()
	default:
		return p.parseReturnItem()
	}
}

func (p *xqParser) parseReturnItem() error {
	t := p.tok
	switch {
	case t.Kind == xpath.TokIdent && (t.Text == "count" || t.Text == "data" || t.Text == "string" || t.Text == "sum" || t.Text == "avg"):
		p.next()
		if p.tok.Kind != xpath.TokLParen {
			return p.errf("expected ( after %s", t.Text)
		}
		p.next()
		rel, err := p.returnPath()
		if err != nil {
			return err
		}
		if p.tok.Kind != xpath.TokRParen {
			return p.errf("expected ) after %s(...", t.Text)
		}
		p.next()
		p.q.Returns = append(p.q.Returns, rel)
		return nil
	case isVar(t):
		rel, err := p.returnPath()
		if err != nil {
			return err
		}
		p.q.Returns = append(p.q.Returns, rel)
		return nil
	case t.Kind == xpath.TokString:
		p.next() // literal text content: no extraction leg
		return nil
	default:
		return p.errf("unsupported return expression starting at %q", t.Text)
	}
}

// parseConstructorReturn skips the constructor's tokens up to the end of
// the query, parsing each {...} hole as a return item. The skipped text
// must still lex: a bare $ or an unterminated string is an error.
func (p *xqParser) parseConstructorReturn() error {
	for {
		switch t := p.tok; {
		case t.Kind == xpath.TokEOF:
			return nil
		case t.Kind == xpath.TokVar && !isVar(t), t.Kind == xpath.TokBad && (t.Text[0] == '"' || t.Text[0] == '\''):
			return p.errf("bad token %q in element constructor", t.Text)
		case isChar(t, "{"):
			p.next()
			if err := p.parseReturnItem(); err != nil {
				return err
			}
			if !isChar(p.tok, "}") {
				return p.errf("expected } in constructor")
			}
		}
		p.next()
	}
}
