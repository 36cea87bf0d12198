package xpath

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/xmldoc"
)

const auctionDoc = `<site>
  <regions>
    <namerica>
      <item id="i1"><name>Mountain bike</name><quantity>5</quantity><price>120.50</price></item>
      <item id="i2"><name>Tortoise</name><quantity>1</quantity><price>15</price></item>
    </namerica>
    <africa>
      <item id="i3"><name>Mask</name><quantity>12</quantity><price>30</price></item>
    </africa>
  </regions>
  <people>
    <person id="p1"><name>Alice</name><profile income="65000"><interest category="c1"/></profile></person>
    <person id="p2"><name>Bob</name><profile income="30000"><interest category="c2"/></profile></person>
  </people>
  <open_auctions>
    <open_auction id="a1"><initial>100</initial><current>180</current><enddate>2008-06-15</enddate></open_auction>
    <open_auction id="a2"><initial>20</initial><current>25</current><enddate>2008-07-01</enddate></open_auction>
  </open_auctions>
</site>`

func doc(t testing.TB) *xmldoc.Document {
	t.Helper()
	d, err := xmldoc.ParseString(auctionDoc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func names(ns []*xmldoc.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name)
	}
	return out
}

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want string // round-tripped form; "" = same
	}{
		{"/site/regions/namerica/item", ""},
		{"//item", ""},
		{"/site//item/@id", ""},
		{"/site/regions/*/item", ""},
		{"//item[quantity > 5]", ""},
		{"//item[quantity > 5 and price < 100]", "//item[(quantity > 5 and price < 100)]"},
		{"//person[profile/@income >= 50000]", ""},
		{`//item[contains(name, "bike")]`, ""},
		{"//item[not(quantity = 1)]", ""},
		{"open_auction/initial", ""},
		{".", ""},
		{"//item[quantity]", ""},
		{"//item[quantity = 5 or quantity = 12]", "//item[(quantity = 5 or quantity = 12)]"},
		// Date literals render unquoted in ISO form.
		{"//auction[enddate > \"2008-06-20\"]", "//auction[enddate > 2008-06-20]"},
	}
	for _, tc := range cases {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		got := e.String()
		// Normalize quotes for comparison (we render with %q-ish quoting).
		got = strings.ReplaceAll(got, `"`, `"`)
		if got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
		}
	}
}

// TestDotLedPathsStayRelative checks that a path led by "./" or ".//"
// parses as a relative path, renders as one, and that the rendering
// re-parses to an equal AST.
func TestDotLedPathsStayRelative(t *testing.T) {
	cases := []struct{ in, want string }{
		{"./a", "a"},
		{"./a/b", "a/b"},
		{".//a", ".//a"},
		{".//a//b", ".//a//b"},
		{"/a[./b = 1]", "/a[b = 1]"},
		{"/a[.//b]", "/a[.//b]"},
		{"//a[.//b/c > 2]/d", "//a[.//b/c > 2]/d"},
	}
	for _, tc := range cases {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
			continue
		}
		if strings.HasPrefix(tc.in, ".") && !e.Relative {
			t.Errorf("Parse(%q) is absolute", tc.in)
		}
		again, err := Parse(tc.want)
		if err != nil {
			t.Errorf("rendering %q does not re-parse: %v", tc.want, err)
			continue
		}
		if !reflect.DeepEqual(again, e) {
			t.Errorf("%q re-parses to %#v, want %#v", tc.want, again, e)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"/site/",
		"//",
		"/site/item[",
		"/site/item[quantity >]",
		"/site/item[quantity > 'x]",
		"/site/item]",
		"/site/item[contains(name)]",
		"/site/item[contains(name, 5)]",
		"/site/item[not(quantity]",
		"/a!b",
		"/a[b = ]",
		"/a[(b = 1]",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestEvalSimplePaths(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		n    int
	}{
		{"/site", 1},
		{"/site/regions/namerica/item", 2},
		{"/site/regions/*/item", 3},
		{"//item", 3},
		{"//item/@id", 3},
		{"//@id", 7},
		{"/site//name", 5},
		{"//name/text()", 5},
		{"/nosuch", 0},
		{"//person/profile/interest/@category", 2},
		{"/site/regions//item", 3},
	}
	for _, tc := range cases {
		got, err := EvalString(d, tc.path)
		if err != nil {
			t.Errorf("EvalString(%q): %v", tc.path, err)
			continue
		}
		if len(got) != tc.n {
			t.Errorf("Eval(%q) = %d nodes, want %d", tc.path, len(got), tc.n)
		}
	}
}

func TestEvalPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct {
		path string
		n    int
	}{
		{"//item[quantity > 4]", 2},
		{"//item[quantity > 4 and price < 100]", 1},
		{"//item[quantity = 1 or quantity = 12]", 2},
		{"//item[not(quantity = 1)]", 2},
		{`//item[contains(name, "bike")]`, 1},
		{"//person[profile/@income >= 50000]", 1},
		{"//item[quantity]", 3},
		{"//item[nosub]", 0},
		{"//open_auction[initial >= 100][current > 150]", 1},
		{"//open_auction[enddate > \"2008-06-20\"]", 1},
		{"//item[quantity > 100]", 0},
		{"//item[price >= 15 and price <= 40]", 2},
		{"//item[name = \"Mask\"]", 1},
		{"//item[quantity != 1]", 2},
	}
	for _, tc := range cases {
		got, err := EvalString(d, tc.path)
		if err != nil {
			t.Errorf("EvalString(%q): %v", tc.path, err)
			continue
		}
		if len(got) != tc.n {
			t.Errorf("Eval(%q) = %d nodes, want %d", tc.path, len(got), tc.n)
		}
	}
}

func TestEvalDotPredicate(t *testing.T) {
	d := doc(t)
	got, err := EvalString(d, "//quantity[. > 4]")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("//quantity[. > 4] = %d, want 2", len(got))
	}
}

func TestEvalDocumentOrderAndDedup(t *testing.T) {
	d := doc(t)
	got, _ := EvalString(d, "//item")
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatal("results not in document order")
		}
	}
	// //*//name could reach the same name via multiple ancestors.
	got, _ = EvalString(d, "//*//name")
	seen := map[*xmldoc.Node]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatal("duplicate node in results")
		}
		seen[n] = true
	}
}

func TestEvalFromRelative(t *testing.T) {
	d := doc(t)
	items, _ := EvalString(d, "//item")
	rel := MustParse("name")
	var ev Evaluator
	for _, it := range items {
		got := ev.EvalFrom(it, rel)
		if len(got) != 1 {
			t.Errorf("item %v: name eval = %d nodes", it.AttrNode("id"), len(got))
		}
	}
	dot := MustParse(".")
	if got := ev.EvalFrom(items[0], dot); len(got) != 1 || got[0] != items[0] {
		t.Error("dot eval should return the context node")
	}
}

func TestEvaluatorCountsVisits(t *testing.T) {
	d := doc(t)
	var ev Evaluator
	ev.Eval(d, MustParse("//item[quantity > 4]"))
	if ev.Visited == 0 {
		t.Error("Visited not counted")
	}
}

func TestAttrDescendantSemantics(t *testing.T) {
	d := xmldoc.MustParse(`<a id="x"><b id="y"><c id="z"/></b></a>`)
	got, _ := EvalString(d, "/a//@id")
	// /a//@id includes a's own @id (empty descendant gap) plus b's and c's.
	if len(got) != 3 {
		t.Errorf("/a//@id = %d, want 3", len(got))
	}
	got, _ = EvalString(d, "/a//c")
	if len(got) != 1 {
		t.Errorf("/a//c = %d, want 1", len(got))
	}
	got, _ = EvalString(d, "/a//a")
	if len(got) != 0 {
		t.Errorf("/a//a = %d, want 0 (descendant is strictly below)", len(got))
	}
}

func TestLinearPatternAndAppendTo(t *testing.T) {
	e := MustParse("/site/regions/*/item[quantity > 5]/name")
	p := e.LinearPattern()
	if p.String() != "/site/regions/*/item/name" {
		t.Errorf("LinearPattern = %q", p)
	}
	rel := MustParse("profile/@income")
	base := pattern.MustParse("/site/people/person")
	full := rel.AppendTo(base)
	if full.String() != "/site/people/person/profile/@income" {
		t.Errorf("AppendTo = %q", full)
	}
	dot := MustParse(".")
	if got := dot.AppendTo(base); got.String() != base.String() {
		t.Errorf("dot AppendTo = %q", got)
	}
}

func TestHasPredicates(t *testing.T) {
	if MustParse("/a/b").HasPredicates() {
		t.Error("no predicates expected")
	}
	if !MustParse("/a[x = 1]/b").HasPredicates() {
		t.Error("predicate expected")
	}
}

func TestEvalAgainstPatternMatching(t *testing.T) {
	// Cross-check: for predicate-free absolute paths, the evaluator and
	// the pattern matcher must agree on every node of the document.
	d := doc(t)
	for _, expr := range []string{"/site/regions/namerica/item", "//item", "//item/@id", "/site//name", "//*", "/site/*"} {
		e := MustParse(expr)
		p := e.LinearPattern()
		m := pattern.Compile(p)
		want := map[*xmldoc.Node]bool{}
		d.Walk(func(n *xmldoc.Node) bool {
			if m.MatchPath(n.RootPath()) {
				want[n] = true
			}
			return true
		})
		got := Eval(d, e)
		if len(got) != len(want) {
			t.Errorf("%s: eval %d nodes, matcher %d", expr, len(got), len(want))
			continue
		}
		for _, n := range got {
			if !want[n] {
				t.Errorf("%s: eval selected %s which matcher rejects", expr, n.RootPath())
			}
		}
	}
}

func TestComparisonStringRendering(t *testing.T) {
	e := MustParse(`//item[contains(name, "bike") and price <= 10]`)
	s := e.String()
	if !strings.Contains(s, "contains(name") || !strings.Contains(s, "price <= 10") {
		t.Errorf("rendered: %s", s)
	}
}

func TestDateLiteralTyping(t *testing.T) {
	e := MustParse(`//open_auction[enddate > "2008-06-20"]`)
	cmp := e.Steps[0].Preds[0].(*Comparison)
	if cmp.Value.Type != sqltype.Date {
		t.Errorf("date literal typed %v", cmp.Value.Type)
	}
	e2 := MustParse(`//item[name = "Mask"]`)
	cmp2 := e2.Steps[0].Preds[0].(*Comparison)
	if cmp2.Value.Type != sqltype.Varchar {
		t.Errorf("string literal typed %v", cmp2.Value.Type)
	}
}
