package querylang

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sqltype"
)

func legStrings(q *Query) []string {
	var out []string
	for _, l := range q.Legs() {
		out = append(out, l.String())
	}
	sort.Strings(out)
	return out
}

func mustXQuery(t *testing.T, src string) *Query {
	t.Helper()
	q, err := ParseXQuery(src)
	if err != nil {
		t.Fatalf("ParseXQuery(%q): %v", src, err)
	}
	return q
}

func TestXQueryBasic(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/regions/namerica/item where $i/quantity > 5 return $i/name`)
	if q.Collection != "items" {
		t.Errorf("Collection = %q", q.Collection)
	}
	if q.Binding.String() != "/site/regions/namerica/item" {
		t.Errorf("Binding = %q", q.Binding)
	}
	legs := q.Legs()
	want := map[string]bool{
		"/site/regions/namerica/item":               false, // exists leg
		"/site/regions/namerica/item/quantity > 5":  false,
		"/site/regions/namerica/item/name (output)": false,
	}
	for _, l := range legs {
		s := l.String()
		if _, ok := want[s]; ok {
			want[s] = true
		} else {
			t.Errorf("unexpected leg %q", s)
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("missing leg %q", s)
		}
	}
}

func TestXQueryInlinePredicates(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/regions/*/item[price > 100 and quantity > 2] return $i`)
	legs := legStrings(q)
	joined := strings.Join(legs, "\n")
	for _, want := range []string{
		"/site/regions/*/item/price > 100",
		"/site/regions/*/item/quantity > 2",
		"/site/regions/*/item",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("legs missing %q:\n%s", want, joined)
		}
	}
}

func TestXQueryLetAndNestedFor(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/open_auctions/open_auction
for $b in $i/bidder
let $inc := $b/increase
where $inc > 10 and $i/initial >= 100
return ($i/itemref/@item, $b/date)`)
	joined := strings.Join(legStrings(q), "\n")
	for _, want := range []string{
		"/site/open_auctions/open_auction/bidder/increase > 10",
		"/site/open_auctions/open_auction/initial >= 100",
		"/site/open_auctions/open_auction/itemref/@item (output)",
		"/site/open_auctions/open_auction/bidder/date (output)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("legs missing %q:\n%s", want, joined)
		}
	}
}

func TestXQueryDescendantAfterVar(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site where $i//quantity > 5 return $i`)
	joined := strings.Join(legStrings(q), "\n")
	if !strings.Contains(joined, "/site//quantity > 5") {
		t.Errorf("descendant step lost:\n%s", joined)
	}
}

func TestXQueryOrMarksDisjunct(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/item where $i/a = 1 or $i/b = 2 return $i`)
	var sawDisjunct int
	for _, l := range q.Legs() {
		if l.Disjunct {
			sawDisjunct++
		}
	}
	if sawDisjunct != 2 {
		t.Errorf("disjunct legs = %d, want 2", sawDisjunct)
	}
}

func TestXQueryContainsAndNot(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/item where contains($i/name, "bike") and not($i/sold = 1) return count($i)`)
	var foundContains, foundNot bool
	for _, l := range q.Legs() {
		if l.Op == sqltype.ContainsSubstr {
			foundContains = true
		}
		if l.Disjunct && l.Op == sqltype.Eq {
			foundNot = true
		}
	}
	if !foundContains || !foundNot {
		t.Errorf("contains=%v notDisjunct=%v", foundContains, foundNot)
	}
}

func TestXQueryConstructorReturn(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/item return <row>{ $i/name }{ $i/price }</row>`)
	if len(q.Returns) != 2 {
		t.Fatalf("Returns = %d, want 2", len(q.Returns))
	}
}

func TestXQueryDateLiteral(t *testing.T) {
	q := mustXQuery(t, `for $a in collection("auctions")/site/closed_auctions/closed_auction where $a/date >= "2008-01-01" return $a/price`)
	var found bool
	for _, l := range q.Legs() {
		if l.Op == sqltype.Ge && l.Value.Type == sqltype.Date {
			found = true
		}
	}
	if !found {
		t.Error("date-typed leg missing")
	}
}

func TestXQueryBindingWithoutPath(t *testing.T) {
	q := mustXQuery(t, `for $d in collection("items") return $d`)
	if q.Binding.String() != "/*" {
		t.Errorf("Binding = %q, want /*", q.Binding)
	}
}

func TestXQueryErrors(t *testing.T) {
	bad := []string{
		``,
		`for $i in return $i`,
		`for $i collection("x") return $i`,
		`for in collection("x") return $i`,
		`for $i in collection(x) return $i`,
		`for $i in collection("x") where $j/a = 1 return $i`, // unknown var
		`for $i in collection("x") return`,
		`where $i/a = 1`,
		`for $i in collection("x") where $i/a = return $i`,
		`for $i in collection("x") where $i/a ~ 3 return $i`,
		`let $p := collection("x")/a for $i in collection("y") return $i`, // two bindings... let from collection then for
		`for $i in collection("x") where contains($i/a) return $i`,
		`for $i in collection("x") return $i extra`,
		`for $i in collection("x") let $k : = $i/a return $k`,  // := split
		`for $i in collection("x") let $k ":"= $i/a return $k`, // a string is not :
		`for $ in collection("x") return $i`,                   // bare $
		`for $i in collection("x") return <r>{$i/a} $ </r>`,    // bare $ in a constructor
		`for $i in collection("x") return <r>{$i/a}"</r>`,      // unterminated string in a constructor
		`for $i in collection("x") return <r>{$i/a</r>`,        // unclosed hole
	}
	for _, src := range bad {
		if _, err := ParseXQuery(src); err == nil {
			t.Errorf("ParseXQuery(%q) succeeded, want error", src)
		}
	}
}

// TestXQueryPunctuationByKind pins that clause punctuation is read by
// token kind: a string literal spelling `(`, `)`, `,` or `}` does not
// stand in for it.
func TestXQueryPunctuationByKind(t *testing.T) {
	cases := []struct{ good, bad string }{
		{`for $i in collection("c")/a return $i`, `for $i in collection"(""c"")"/a return $i`},
		{`for $i in collection("c")/a return ($i/b, $i/c)`, `for $i in collection("c")/a return ($i/b "," $i/c ")"`},
		{`for $i in collection("c")/a return count($i/b)`, `for $i in collection("c")/a return count"("$i/b")"`},
		{`for $i in collection("c")/a return <r>{$i/b}</r>`, `for $i in collection("c")/a return <r>{$i/b"}"</r>`},
	}
	for _, tc := range cases {
		if _, err := ParseXQuery(tc.good); err != nil {
			t.Errorf("ParseXQuery(%q): %v", tc.good, err)
		}
		if q, err := ParseXQuery(tc.bad); err == nil {
			t.Errorf("ParseXQuery(%q) = binding %v, returns %v; want an error", tc.bad, q.Binding, q.Returns)
		}
	}
}

func TestSQLXMLBasic(t *testing.T) {
	q, err := ParseSQLXML(`SELECT 1 FROM items WHERE XMLEXISTS('$d/site/item[price > 100]' PASSING doc AS "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Collection != "items" {
		t.Errorf("Collection = %q", q.Collection)
	}
	if !q.PerDocument {
		t.Error("SQL/XML should be per-document")
	}
	joined := strings.Join(legStrings(q), "\n")
	if !strings.Contains(joined, "/site/item/price > 100") {
		t.Errorf("legs:\n%s", joined)
	}
}

func TestSQLXMLMultipleExistsAndQuery(t *testing.T) {
	q, err := ParseSQLXML(`SELECT XMLQUERY('$d/site/item/name' PASSING doc AS "d")
FROM items
WHERE XMLEXISTS('$d/site/item[price > 100]' PASSING doc AS "d")
  AND XMLEXISTS('$d/site/item[quantity > 5]' PASSING doc AS "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.DocConds) != 1 {
		t.Errorf("DocConds = %d, want 1", len(q.DocConds))
	}
	if len(q.DocReturns) != 1 {
		t.Errorf("DocReturns = %d, want 1", len(q.DocReturns))
	}
	joined := strings.Join(legStrings(q), "\n")
	for _, want := range []string{
		"/site/item/price > 100",
		"/site/item/quantity > 5",
		"/site/item/name (output)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("legs missing %q:\n%s", want, joined)
		}
	}
}

func TestSQLXMLErrors(t *testing.T) {
	bad := []string{
		`SELECT 1 FROM items`,                          // no XML predicates
		`SELECT 1 WHERE XMLEXISTS('$d/a' PASSING d)`,   // no FROM
		`SELECT 1 FROM items WHERE XMLEXISTS(noquote)`, // malformed
		`SELECT 1 FROM items WHERE XMLEXISTS('$d/a[' PASSING doc AS "d")`,
	}
	for _, src := range bad {
		if _, err := ParseSQLXML(src); err == nil {
			t.Errorf("ParseSQLXML(%q) succeeded, want error", src)
		}
	}
}

func TestParseAuto(t *testing.T) {
	q, err := ParseAuto(`select 1 from items where xmlexists('$d/a/b' passing doc as "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lang != LangSQLXML {
		t.Error("lowercase select should parse as SQL/XML")
	}
	q, err = ParseAuto(`for $i in collection("items")/a return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lang != LangXQuery {
		t.Error("FLWOR should parse as XQuery")
	}
}

func TestLegDedupe(t *testing.T) {
	q := mustXQuery(t, `for $i in collection("items")/site/item where $i/price > 5 and $i/price > 5 return $i/price`)
	count := 0
	for _, l := range q.Legs() {
		if l.Op == sqltype.Gt {
			count++
		}
	}
	if count != 1 {
		t.Errorf("duplicate legs not merged: %d", count)
	}
}

func TestLegKeyDistinguishesOutput(t *testing.T) {
	a := Leg{Op: sqltype.Exists, Output: true}
	b := Leg{Op: sqltype.Exists, Output: false}
	if a.Key() == b.Key() {
		t.Error("output flag must be part of the leg key")
	}
}

// TestLegPatternsCarryCanonicalString: every leg pattern is built with
// its canonical form rendered, so String — which interning and every
// containment probe by pattern call — never allocates.
func TestLegPatternsCarryCanonicalString(t *testing.T) {
	for _, src := range []string{
		`for $i in collection("items")/site/regions/*/item[price > 100 and quantity > 2] return $i/name`,
		`for $i in collection("items")/site/open_auctions/open_auction
for $b in $i/bidder
let $inc := $b/increase
where $inc > 10 or $i/initial/text() >= 100
return ($i/itemref/@item, $b/date)`,
		`SELECT XMLQUERY('$d/site/item/name' PASSING doc AS "d") FROM items WHERE XMLEXISTS('$d/site/item[price > 100]' PASSING doc AS "d") AND XMLEXISTS('$d/site/item[@id = "x"]' PASSING doc AS "d")`,
	} {
		q, err := ParseAuto(src)
		if err != nil {
			t.Fatalf("ParseAuto(%q): %v", src, err)
		}
		for _, l := range q.Legs() {
			if n := testing.AllocsPerRun(10, func() { _ = l.Pattern.String() }); n != 0 {
				t.Errorf("leg %s: String allocates %.0f times per call", l, n)
			}
		}
	}
}
