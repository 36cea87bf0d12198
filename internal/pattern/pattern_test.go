package pattern

import (
	"strings"
	"testing"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical form; "" means same as in
	}{
		{"/a", ""},
		{"/a/b/c", ""},
		{"//a", ""},
		{"/a//b", ""},
		{"//*", ""},
		{"/a/*/c", ""},
		{"/a/b/@id", ""},
		{"//@*", ""},
		{"/a/b/text()", ""},
		{"//text()", ""},
		{"/site/regions/namerica/item/quantity", ""},
		{"/regions/*/item/*", ""},
		{"/a//*", ""},
		{"/ns:tag/sub-tag/x.y", ""},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a/b",                                // no leading slash
		"/",                                  // empty step
		"/a/",                                // trailing empty step
		"/a//",                               // trailing empty descendant step
		"/@id/b",                             // attribute not last
		"/text()/b",                          // text not last
		"/a/@",                               // empty attribute name
		"/a/b[1]",                            // predicates are not part of index patterns
		"/a b",                               // bad name
		"/1a",                                // name starting with digit
		"/" + strings.Repeat("a/", 61) + "a", // too deep
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		pat  string
		path string
		want bool
	}{
		{"/a/b/c", "/a/b/c", true},
		{"/a/b/c", "/a/b", false},
		{"/a/b/c", "/a/b/c/d", false},
		{"/a/b/c", "/a/x/c", false},
		{"/a/*/c", "/a/b/c", true},
		{"/a/*/c", "/a/b/b/c", false},
		{"//c", "/c", true},
		{"//c", "/a/b/c", true},
		{"//c", "/a/b/c/d", false},
		{"/a//c", "/a/c", true},
		{"/a//c", "/a/b/c", true},
		{"/a//c", "/a/b/b/b/c", true},
		{"/a//c", "/b/c", false},
		{"//*", "/a", true},
		{"//*", "/a/b/c", true},
		{"//*", "/a/@id", false}, // element wildcard does not match attributes
		{"//@*", "/a/@id", true},
		{"//@id", "/a/b/@id", true},
		{"//@id", "/a/b/@other", false},
		{"/a/@id", "/a/@id", true},
		{"/a/@id", "/a/b/@id", false},
		{"//text()", "/a/b/text()", true},
		{"/a/text()", "/a/text()", true},
		{"/a/text()", "/a/b/text()", false},
		{"/a//c", "/a/@c", false}, // attr label is not an element label
		{"//item/@id", "/site/regions/namerica/item/@id", true},
		{"/regions/*/item/quantity", "/regions/africa/item/quantity", true},
		{"/regions/*/item/quantity", "/regions/africa/item/price", false},
		// Descendant gaps are element-only: //@id cannot absorb text steps.
		{"//c", "/a/text()", false},
	}
	for _, tc := range cases {
		p := MustParse(tc.pat)
		if got := MatchesPath(p, tc.path); got != tc.want {
			t.Errorf("MatchesPath(%q, %q) = %v, want %v", tc.pat, tc.path, got, tc.want)
		}
	}
}

func TestMatchPathMalformed(t *testing.T) {
	p := MustParse("//*")
	for _, path := range []string{"", "a/b", "/a//b", "/a/*", "/a/@", "/a/text()/b"} {
		if MatchesPath(p, path) {
			t.Errorf("malformed path %q should not match", path)
		}
	}
}

func TestParseWord(t *testing.T) {
	w, err := ParseWord("/a/b/@id")
	if err != nil {
		t.Fatal(err)
	}
	want := []Sym{{TestElem, "a"}, {TestElem, "b"}, {TestAttr, "id"}}
	if len(w) != len(want) {
		t.Fatalf("len = %d", len(w))
	}
	for i := range w {
		if w[i] != want[i] {
			t.Errorf("sym[%d] = %+v, want %+v", i, w[i], want[i])
		}
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		// Reflexive.
		{"/a/b/c", "/a/b/c", true},
		// Wildcard generalization.
		{"/a/*/c", "/a/b/c", true},
		{"/a/b/c", "/a/*/c", false},
		// Descendant generalization.
		{"//c", "/a/b/c", true},
		{"//c", "/c", true},
		{"/a/b/c", "//c", false},
		{"/a//c", "/a/b/c", true},
		{"/a//c", "/a/c", true},
		{"/a//c", "/b/c", false},
		{"//*", "/a/b/c", true},
		{"//*", "//c", true},
		{"//*", "/a/*/c", true},
		// Attribute kinds are disjoint from elements.
		{"//*", "/a/@id", false},
		{"//@*", "/a/@id", true},
		{"//@*", "/a/b", false},
		{"//@id", "/a/b/@id", true},
		{"/a/@*", "/a/@id", true},
		{"/a/@id", "/a/@*", false},
		// Mixed wildcard + descendant.
		{"/a//*", "/a/b/c", true},
		{"/a//*", "/a/b", true},
		{"/a//*", "/b/c", false},
		{"//b//c", "/a/b/c", true},
		{"//b//c", "/a/b/d/c", true},
		{"//b//c", "/a/c", false},
		{"/a/*/c", "/a/b/b/c", false},
		// The paper's example chain.
		{"/regions/*/item/quantity", "/regions/namerica/item/quantity", true},
		{"/regions/*/item/*", "/regions/*/item/quantity", true},
		{"/regions/*/item/*", "/regions/samerica/item/price", true},
		{"/regions/*/item/quantity", "/regions/*/item/*", false},
		// Descendant on both sides.
		{"//c", "/a//c", true},
		{"/a//c", "//c", false},
		{"//a//c", "//a//b//c", true},
		{"//a//b//c", "//a//c", false},
		// Equivalent but syntactically different: /a//* vs /a//*//*?
		// /a//*//* requires at least two levels below a.
		{"/a//*", "/a//*//*", true},
		{"/a//*//*", "/a//*", false},
		// text().
		{"//text()", "/a/b/text()", true},
		{"/a/text()", "//text()", false},
		{"//*", "//text()", false},
	}
	for _, tc := range cases {
		p, q := MustParse(tc.p), MustParse(tc.q)
		if got := Contains(p, q); got != tc.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"/a/b", "/a/b", true},
		{"/a/b", "/a/c", false},
		{"/a/*", "/a/b", true},
		{"//c", "/a/b/c", true},
		{"//c", "/a/b", false},
		{"/a//c", "//b/c", true}, // /a/b/c in both
		{"/a/@id", "//@id", true},
		{"/a/@id", "//@other", false},
		{"//*", "//@*", false}, // element vs attribute: disjoint
		{"/regions/namerica/item", "/regions/*/item", true},
		{"/a/b/c", "/a/b/c/d", false},
		{"//text()", "/a/text()", true},
		{"//text()", "/a/b", false},
	}
	for _, tc := range cases {
		p, q := MustParse(tc.p), MustParse(tc.q)
		if got := Overlaps(p, q); got != tc.want {
			t.Errorf("Overlaps(%q, %q) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := Overlaps(q, p); got != tc.want {
			t.Errorf("Overlaps(%q, %q) = %v, want %v (symmetry)", tc.q, tc.p, got, tc.want)
		}
	}
}

func TestZeroPattern(t *testing.T) {
	var z Pattern
	if !z.IsZero() {
		t.Error("zero pattern should be zero")
	}
	if Contains(z, MustParse("/a")) || Contains(MustParse("/a"), z) {
		t.Error("containment with zero pattern should be false")
	}
	if Overlaps(z, MustParse("/a")) {
		t.Error("overlap with zero pattern should be false")
	}
}

func TestHelpers(t *testing.T) {
	p := MustParse("/a/*/c//d/@id")
	if p.Len() != 5 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.WildcardCount() != 1 {
		t.Errorf("WildcardCount = %d", p.WildcardCount())
	}
	if p.DescendantCount() != 1 {
		t.Errorf("DescendantCount = %d", p.DescendantCount())
	}
	names := strings.Join(p.Names(), ",")
	if names != "a,c,d,id" {
		t.Errorf("Names = %q", names)
	}
	if !MustParse("//*").Universal() || !MustParse("//@*").Universal() {
		t.Error("//* and //@* are universal")
	}
	if MustParse("//a").Universal() || MustParse("/a").Universal() {
		t.Error("named/child patterns are not universal")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse("/a/b")
	q := p.Clone()
	q.Steps[0].Name = "zzz"
	if p.Steps[0].Name != "a" {
		t.Error("Clone shares step storage with original")
	}
}

func TestWithStep(t *testing.T) {
	p := MustParse("/a/b/c")
	q := p.WithStep(1, Step{Axis: Child, Kind: TestElem, Name: "x"})
	if q.String() != "/a/x/c" {
		t.Errorf("WithStep = %q", q.String())
	}
	if p.String() != "/a/b/c" {
		t.Errorf("WithStep mutated receiver: %q", p.String())
	}
}
