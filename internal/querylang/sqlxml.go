package querylang

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// ParseSQLXML parses the SQL/XML subset:
//
//	SELECT XMLQUERY('$d/site/item/name' PASSING doc AS "d")
//	FROM items
//	WHERE XMLEXISTS('$d/site/item[price > 100]' PASSING doc AS "d")
//	  AND XMLEXISTS('$d/site/item[quantity > 5]' PASSING doc AS "d")
//
// The embedded XPath strings carry the index-relevant patterns; the
// PASSING clause and the relational select list are recognized but
// otherwise ignored, exactly as DB2's XML index matching only inspects
// the XMLEXISTS/XMLQUERY arguments [1].
//
// The statement is read from xpath's tokens: FROM, XMLEXISTS and
// XMLQUERY are identifiers matched case-insensitively, so a word inside a
// quoted string never counts, and a function name followed by `(` must
// take a single-quoted string as its first argument. The first
// XMLEXISTS becomes the query binding; additional XMLEXISTS conjuncts
// become document-level conditions. Result semantics are per-document
// (SQL rows).
func ParseSQLXML(text string) (*Query, error) {
	q := &Query{Text: text, Lang: LangSQLXML, PerDocument: true}
	var exists, queries []string
	for t := xpath.Lex(text, 0); t.Kind != xpath.TokEOF; {
		next := xpath.Lex(text, t.End)
		switch {
		case isWord(t, "FROM") && q.Collection == "":
			if next.Kind != xpath.TokIdent {
				return nil, fmt.Errorf("querylang: cannot parse table name after FROM: %q", text)
			}
			q.Collection = next.Text
		case (isWord(t, "XMLEXISTS") || isWord(t, "XMLQUERY")) && next.Kind == xpath.TokLParen:
			arg := xpath.Lex(text, next.End)
			switch {
			case arg.Kind == xpath.TokBad && arg.Text[0] == '\'':
				return nil, fmt.Errorf("querylang: unterminated XPath string in %q", text)
			case arg.Kind != xpath.TokString || text[arg.Pos] != '\'':
				return nil, fmt.Errorf("querylang: %s without quoted XPath in %q", t.Text, text)
			case isWord(t, "XMLEXISTS"):
				exists = append(exists, arg.Text)
			default:
				queries = append(queries, arg.Text)
			}
			next = xpath.Lex(text, arg.End)
		}
		t = next
	}
	switch {
	case q.Collection == "":
		return nil, fmt.Errorf("querylang: SQL statement lacks FROM: %q", text)
	case len(exists) == 0 && len(queries) == 0:
		return nil, fmt.Errorf("querylang: SQL statement has no XMLEXISTS or XMLQUERY: %q", text)
	}
	for i, src := range exists {
		e, err := embeddedPath(src)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			q.Binding = e
		} else {
			q.DocConds = append(q.DocConds, e)
		}
	}
	for _, src := range queries {
		e, err := embeddedPath(src)
		if err != nil {
			return nil, err
		}
		if q.Binding == nil {
			q.Binding = e
			continue
		}
		q.DocReturns = append(q.DocReturns, e)
	}
	return q, nil
}

// isWord reports whether t is the identifier w, ASCII letters matched in
// either case. The lengths must agree, so no non-ASCII letter folds into w.
func isWord(t xpath.Token, w string) bool {
	return t.Kind == xpath.TokIdent && len(t.Text) == len(w) && strings.EqualFold(t.Text, w)
}

// docRoot resolves the PASSING variable, whatever its name, to the
// document root.
func docRoot(string) (*xpath.PathExpr, error) { return &xpath.PathExpr{}, nil }

// embeddedPath parses an XMLEXISTS/XMLQUERY argument: a path written
// after the PASSING variable ($d/site/item) or alone (/site/item). Only
// the lexer's blanks may surround it.
func embeddedPath(src string) (*xpath.PathExpr, error) {
	e, end, err := xpath.ParsePrefix(src, 0, false, docRoot)
	if err == nil && xpath.Lex(src, end).Kind != xpath.TokEOF {
		err = fmt.Errorf("trailing input at %q", src[end:])
	}
	if err != nil {
		return nil, fmt.Errorf("querylang: embedded XPath: %w", err)
	}
	return e.(*xpath.ExistsExpr).Path, nil
}
