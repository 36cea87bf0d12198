package querylang

import (
	"strings"
	"testing"
)

func TestSQLXMLCaseInsensitiveKeywords(t *testing.T) {
	q, err := ParseSQLXML(`select count(*) from Orders where xmlexists ('$d/FIXML/Order[@Acct = "123"]' passing doc as "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Collection != "Orders" {
		t.Errorf("Collection = %q", q.Collection)
	}
	joined := strings.Join(legStrings(q), "\n")
	if !strings.Contains(joined, `/FIXML/Order/@Acct = "123"`) {
		t.Errorf("legs:\n%s", joined)
	}
}

func TestSQLXMLQueryOnlyBecomesBinding(t *testing.T) {
	q, err := ParseSQLXML(`SELECT XMLQUERY('$d/site/item/name' PASSING doc AS "d") FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Binding == nil || q.Binding.String() != "/site/item/name" {
		t.Errorf("Binding = %v", q.Binding)
	}
	if len(q.DocReturns) != 0 {
		t.Errorf("DocReturns = %d", len(q.DocReturns))
	}
}

func TestSQLXMLBarePathWithoutDollar(t *testing.T) {
	q, err := ParseSQLXML(`SELECT 1 FROM items WHERE XMLEXISTS('/site/item[price > 3]' PASSING doc AS "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Binding.String() != "/site/item[price > 3]" {
		t.Errorf("Binding = %q", q.Binding)
	}
}

func TestSQLXMLFromInsideStringIgnored(t *testing.T) {
	// The word FROM inside a quoted string must not be taken as the
	// table clause.
	q, err := ParseSQLXML(`SELECT 'select from nowhere' FROM items WHERE XMLEXISTS('$d/a/b' PASSING doc AS "d")`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Collection != "items" {
		t.Errorf("Collection = %q", q.Collection)
	}
}

func TestSQLXMLDateLiteralInsidePredicate(t *testing.T) {
	q, err := ParseSQLXML(`SELECT 1 FROM auction WHERE XMLEXISTS('$d/site/closed_auctions/closed_auction[date >= "2008-01-01"]' PASSING doc AS "d")`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(legStrings(q), "\n")
	if !strings.Contains(joined, "date >= 2008-01-01") {
		t.Errorf("date leg missing:\n%s", joined)
	}
}

func TestXQueryWhitespaceAndNewlines(t *testing.T) {
	q, err := ParseXQuery("for $i in collection(\"items\")/site/item\n\twhere\n\t$i/price > 5\nreturn\n\t$i/name")
	if err != nil {
		t.Fatal(err)
	}
	if q.Binding.String() != "/site/item" {
		t.Errorf("Binding = %q", q.Binding)
	}
}

func TestXQueryDocFunction(t *testing.T) {
	q, err := ParseXQuery(`for $i in doc("items")/site/item return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Collection != "items" {
		t.Errorf("doc() collection = %q", q.Collection)
	}
}

func TestXQueryBindingPredicateWithContains(t *testing.T) {
	q, err := ParseXQuery(`for $i in collection("c")/site/item[contains(name, "bike") and price < 9] return $i`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(legStrings(q), "\n")
	for _, want := range []string{`contains`, "price < 9"} {
		if !strings.Contains(joined, want) {
			t.Errorf("legs missing %q:\n%s", want, joined)
		}
	}
}

func TestXQueryAttributeReturn(t *testing.T) {
	q, err := ParseXQuery(`for $o in collection("order")/FIXML/Order where $o/OrdQty/@Qty > 100 return $o/@ID`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(legStrings(q), "\n")
	if !strings.Contains(joined, "/FIXML/Order/@ID (output)") {
		t.Errorf("attribute return leg missing:\n%s", joined)
	}
	if !strings.Contains(joined, "/FIXML/Order/OrdQty/@Qty > 100") {
		t.Errorf("attribute predicate leg missing:\n%s", joined)
	}
}

func TestXQueryTextLegNormalizedToParent(t *testing.T) {
	q, err := ParseXQuery(`for $i in collection("c")/a/b where $i/c/text() = "x" return $i`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(legStrings(q), "\n")
	if strings.Contains(joined, "text()") {
		t.Errorf("text() leg not normalized:\n%s", joined)
	}
	if !strings.Contains(joined, `/a/b/c = "x"`) {
		t.Errorf("normalized element leg missing:\n%s", joined)
	}
}

// sqlOutcome renders what ParseSQLXML makes of a statement: its table and
// paths, or "error".
func sqlOutcome(src string) string {
	q, err := ParseSQLXML(src)
	if err != nil {
		return "error"
	}
	out := "table " + q.Collection + " binding " + q.Binding.String()
	for _, p := range q.DocConds {
		out += " doccond " + p.String()
	}
	for _, p := range q.DocReturns {
		out += " docreturn " + p.String()
	}
	return out
}

func TestSQLXMLWhitespaceBeforeParen(t *testing.T) {
	want := sqlOutcome(`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b > 1]' PASSING doc AS "d")`)
	if want == "error" {
		t.Fatal("the statement without whitespace does not parse")
	}
	for _, ws := range []string{"\n", "  ", "\t", " \r\n "} {
		src := `SELECT 1 FROM t WHERE XMLEXISTS` + ws + `('$d/a[b > 1]' PASSING doc AS "d")`
		if got := sqlOutcome(src); got != want {
			t.Errorf("%q: got %s, want %s", src, got, want)
		}
	}
}

// TestSQLXMLArgumentBlanks pins that an embedded path may be surrounded
// by exactly the blanks the lexer skips, wherever they stand: before the
// path, between the PASSING variable and its path, or after the path.
// Other white space, such as a form feed, is an error in every place.
func TestSQLXMLArgumentBlanks(t *testing.T) {
	stmt := func(arg string) string { return "SELECT 1 FROM t WHERE XMLEXISTS('" + arg + "')" }
	for _, blank := range []string{" ", "\t", "\n", "\r", " \r\n\t"} {
		for _, arg := range []string{blank + "/a", "$d" + blank + "/a", "/a" + blank, blank + "$d/a" + blank} {
			if got := sqlOutcome(stmt(arg)); got != "table t binding /a" {
				t.Errorf("%q: got %s, want the path /a", arg, got)
			}
		}
	}
	for _, blank := range []string{"\f", "\v"} {
		for _, arg := range []string{blank + "/a", "$d" + blank + "/a", "/a" + blank, blank + "$d/a"} {
			if got := sqlOutcome(stmt(arg)); got != "error" {
				t.Errorf("%q: got %s, want an error", arg, got)
			}
		}
	}
}

func TestSQLXMLQueryLiteralNamingXMLEXISTS(t *testing.T) {
	got := sqlOutcome(`SELECT XMLQUERY('$d/a[name = "XMLEXISTS(x)"]' PASSING doc AS "d") FROM t`)
	if want := `table t binding /a[name = "XMLEXISTS(x)"]`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestSQLXMLStatementTokens pins how the statement scan reads FROM and the
// function names as tokens where the substring scan it replaced read
// them differently.
func TestSQLXMLStatementTokens(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"function name in a quoted string", `SELECT 'XMLQUERY(' FROM t WHERE XMLEXISTS('$d/a')`, "table t binding /a"},
		{"FROM in a quoted XPath", `SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = "x FROM y"]')`, `table t binding /a[b = "x FROM y"]`},
		{"function name inside a longer name", `SELECT 1 FROM t WHERE MY_XMLEXISTS('$d/a')`, "error"},
		{"FROM after $ is a variable", `SELECT $FROM FROM t WHERE XMLEXISTS('$d/a')`, "table t binding /a"},
		{"argument after another argument", `SELECT 1 FROM t WHERE XMLEXISTS(doc, '$d/a')`, "error"},
		{"double-quoted argument", `SELECT 1 FROM t WHERE XMLEXISTS("$d/a") AND XMLEXISTS('$d/b')`, "error"},
		{"table name led by a digit", `SELECT 1 FROM 9t WHERE XMLEXISTS('$d/a')`, "error"},
		{"vertical tab after FROM", "SELECT 1 FROM\vt WHERE XMLEXISTS('$d/a')", "error"},
		{"one call spaced, one not", `SELECT 1 FROM t WHERE XMLEXISTS ('$d/a') AND XMLEXISTS('$d/b')`, "table t binding /a doccond /b"},
		{"function name without a call", `SELECT XMLQUERY FROM t WHERE XMLEXISTS('$d/a')`, "table t binding /a"},
		{"unterminated XPath", `SELECT 1 FROM t WHERE XMLEXISTS('$d/a`, "error"},
	}
	for _, tc := range cases {
		if got := sqlOutcome(tc.src); got != tc.want {
			t.Errorf("%s: %q: got %s, want %s", tc.name, tc.src, got, tc.want)
		}
	}
}
