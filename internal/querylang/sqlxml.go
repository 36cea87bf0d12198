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
// The first XMLEXISTS becomes the query binding; additional XMLEXISTS
// conjuncts become document-level conditions. Result semantics are
// per-document (SQL rows).
func ParseSQLXML(text string) (*Query, error) {
	q := &Query{Text: text, Lang: LangSQLXML, PerDocument: true}

	table, err := sqlFromTable(text)
	if err != nil {
		return nil, err
	}
	q.Collection = table

	exists, err := sqlEmbeddedPaths(text, "XMLEXISTS")
	if err != nil {
		return nil, err
	}
	queries, err := sqlEmbeddedPaths(text, "XMLQUERY")
	if err != nil {
		return nil, err
	}
	if len(exists) == 0 && len(queries) == 0 {
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
	if strings.Contains(asciiUpper(text), "COUNT(") {
		q.Aggregate = true
	}
	return q, nil
}

// asciiUpper upper-cases ASCII letters byte-wise. Unlike strings.ToUpper
// it never changes the byte length (invalid UTF-8 would otherwise grow
// into replacement runes), so offsets computed on the result are valid
// in the original text.
func asciiUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// sqlFromTable extracts the table name following FROM.
func sqlFromTable(text string) (string, error) {
	upper := asciiUpper(text)
	i := indexWord(upper, "FROM")
	if i < 0 {
		return "", fmt.Errorf("querylang: SQL statement lacks FROM: %q", text)
	}
	rest := strings.TrimSpace(text[i+len("FROM"):])
	end := 0
	for end < len(rest) && (isIdentChar(rest[end]) || rest[end] == '_') {
		end++
	}
	if end == 0 {
		return "", fmt.Errorf("querylang: cannot parse table name after FROM: %q", text)
	}
	return rest[:end], nil
}

// indexWord finds a whole-word occurrence of w (already upper-cased
// haystack) outside quoted strings.
func indexWord(upper, w string) int {
	inQuote := byte(0)
	for i := 0; i+len(w) <= len(upper); i++ {
		c := upper[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '\'' || c == '"' {
			inQuote = c
			continue
		}
		if upper[i:i+len(w)] == w {
			beforeOK := i == 0 || !isIdentChar(upper[i-1])
			afterOK := i+len(w) == len(upper) || !isIdentChar(upper[i+len(w)])
			if beforeOK && afterOK {
				return i
			}
		}
	}
	return -1
}

// sqlEmbeddedPaths extracts the single-quoted first argument of every
// fn(...) occurrence (fn = XMLEXISTS or XMLQUERY), case-insensitively.
func sqlEmbeddedPaths(text, fn string) ([]string, error) {
	var out []string
	upper := asciiUpper(text)
	for i := 0; ; {
		j := strings.Index(upper[i:], fn+"(")
		if j < 0 {
			// Allow whitespace before the paren.
			j = strings.Index(upper[i:], fn+" (")
			if j < 0 {
				break
			}
		}
		at := i + j + len(fn)
		// Skip to the opening quote.
		k := strings.IndexByte(text[at:], '\'')
		if k < 0 {
			return nil, fmt.Errorf("querylang: %s without quoted XPath in %q", fn, text)
		}
		start := at + k + 1
		end := strings.IndexByte(text[start:], '\'')
		if end < 0 {
			return nil, fmt.Errorf("querylang: unterminated XPath string in %q", text)
		}
		out = append(out, text[start:start+end])
		i = start + end + 1
	}
	return out, nil
}

// sqlHost resolves the PASSING variable, whatever its name, to the
// document root: an embedded path is absolute, its leading / optional.
var sqlHost = xpath.Host{Var: func(string) (*xpath.PathExpr, error) { return &xpath.PathExpr{}, nil }}

// embeddedPath parses an XMLEXISTS/XMLQUERY argument: a path written
// after the PASSING variable ($d/site/item) or alone (/site/item).
func embeddedPath(src string) (*xpath.PathExpr, error) {
	s := strings.TrimSpace(src)
	e, end, err := xpath.ParsePrefix(s, 0, false, sqlHost)
	if err == nil && end < len(s) {
		err = fmt.Errorf("trailing input at %q", s[end:])
	}
	if err != nil {
		return nil, fmt.Errorf("querylang: embedded XPath: %w", err)
	}
	return e.(*xpath.ExistsExpr).Path, nil
}
