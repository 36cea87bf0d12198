package candidate

import (
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sqltype"
)

func mustPattern(t testing.TB, s string) pattern.Pattern {
	t.Helper()
	p, err := pattern.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return p
}

// cand builds a bare candidate for rule-level tests (no Def needed).
func cand(t testing.TB, pat string, ty sqltype.Type) *Candidate {
	t.Helper()
	return &Candidate{Collection: "auction", Pattern: mustPattern(t, pat), Type: ty, Basic: true}
}

func patStrings(pats []pattern.Pattern) []string {
	var out []string
	for _, p := range pats {
		out = append(out, p.String())
	}
	return out
}

func TestLUBRule(t *testing.T) {
	tests := []struct {
		name  string
		c     string
		all   []string
		minSh int
		want  []string
	}{
		{
			name: "paper example",
			c:    "/site/regions/namerica/item/quantity",
			all:  []string{"/site/regions/namerica/item/quantity", "/site/regions/africa/item/quantity"},
			want: []string{"/site/regions/*/item/quantity"},
		},
		{
			name: "second application yields item star",
			c:    "/site/regions/*/item/quantity",
			all:  []string{"/site/regions/*/item/quantity", "/site/regions/samerica/item/price"},
			want: []string{"/site/regions/*/item/*"},
		},
		{
			name: "shape mismatch",
			c:    "/a/b",
			all:  []string{"/a/b", "/a/b/c"},
			want: nil,
		},
		{
			name:  "min shared steps blocks unrelated patterns",
			c:     "/site/regions/namerica/item",
			all:   []string{"/site/regions/namerica/item", "/site/people/person/name"},
			minSh: 2,
			want:  nil,
		},
		{
			name: "identical patterns propose nothing",
			c:    "/a/b",
			all:  []string{"/a/b", "/a/b"},
			want: nil,
		},
	}
	rule, err := RuleByName("lub")
	if err != nil {
		t.Fatal(err)
	}
	if !rule.Fixpoint() {
		t.Error("lub must be a fixpoint rule")
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var all []*Candidate
			for _, s := range tc.all {
				all = append(all, cand(t, s, sqltype.Double))
			}
			c := all[0]
			c.Pattern = mustPattern(t, tc.c)
			got := patStrings(rule.Apply(c, &RuleContext{All: all, MinSharedSteps: tc.minSh}))
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("lub(%s) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

func TestLUBRuleIgnoresOtherStrata(t *testing.T) {
	rule, _ := RuleByName("lub")
	c := cand(t, "/a/b/c", sqltype.Double)
	other := cand(t, "/a/x/c", sqltype.Varchar) // same shape, different type
	foreign := cand(t, "/a/y/c", sqltype.Double)
	foreign.Collection = "other"
	got := rule.Apply(c, &RuleContext{All: []*Candidate{c, other, foreign}})
	if len(got) != 0 {
		t.Errorf("lub crossed (collection, type) strata: %v", patStrings(got))
	}
}

func TestWildcardRule(t *testing.T) {
	rule, err := RuleByName("wildcard")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		c    string
		want []string
	}{
		{"/a/b/c", []string{"/*/b/c", "/a/*/c", "/a/b/*"}},
		{"/a/*", []string{"/*/*"}},
		{"/item/@id", []string{"/*/@id", "/item/@*"}},
	}
	for _, tc := range tests {
		got := patStrings(rule.Apply(cand(t, tc.c, sqltype.Varchar), &RuleContext{}))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("wildcard(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestLeafRule(t *testing.T) {
	rule, err := RuleByName("leaf")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		c    string
		want []string
	}{
		{"/site/regions/namerica/item", []string{"//item"}},
		{"/a/b/@id", []string{"//@id"}},
		{"//item", nil}, // already its own descendant leaf
	}
	for _, tc := range tests {
		got := patStrings(rule.Apply(cand(t, tc.c, sqltype.Varchar), &RuleContext{}))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("leaf(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestAxisRule(t *testing.T) {
	rule, err := RuleByName("axis")
	if err != nil {
		t.Fatal(err)
	}
	got := patStrings(rule.Apply(cand(t, "/a/b", sqltype.Varchar), &RuleContext{}))
	want := []string{"//a/b", "/a//b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("axis(/a/b) = %v, want %v", got, want)
	}
	if props := rule.Apply(cand(t, "//a", sqltype.Varchar), &RuleContext{}); len(props) != 0 {
		t.Errorf("axis(//a) proposed %v for an already-descendant step", patStrings(props))
	}
}

func TestUniversalRule(t *testing.T) {
	rule, err := RuleByName("universal")
	if err != nil {
		t.Fatal(err)
	}
	first := cand(t, "/a/b", sqltype.Double)
	second := cand(t, "/a/c", sqltype.Double)
	ctx := &RuleContext{All: []*Candidate{first, second}}
	got := patStrings(rule.Apply(first, ctx))
	want := []string{"//*", "//@*"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("universal = %v, want %v", got, want)
	}
	// Only the first basic of a (collection, type) proposes, so repeat
	// applications do not inflate the pruned counter.
	if props := rule.Apply(second, ctx); len(props) != 0 {
		t.Errorf("second basic proposed %v", patStrings(props))
	}
	other := cand(t, "/a/d", sqltype.Varchar)
	ctx.All = append(ctx.All, other)
	if props := rule.Apply(other, ctx); len(props) != 2 {
		t.Errorf("first basic of a new type proposed %v", patStrings(props))
	}
}

func TestParseRules(t *testing.T) {
	tests := []struct {
		spec    string
		want    string
		wantErr bool
	}{
		{spec: "", want: ""},
		{spec: "none", want: ""},
		{spec: "all", want: "lub,wildcard,leaf,axis,universal"},
		{spec: "lub,leaf", want: "lub,leaf"},
		{spec: "leaf, lub", want: "lub,leaf"}, // canonical engine order
		{spec: "lub,lub", want: "lub"},
		{spec: "bogus", wantErr: true},
	}
	for _, tc := range tests {
		rules, err := ParseRules(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseRules(%q): expected error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRules(%q): %v", tc.spec, err)
			continue
		}
		if got := RuleNames(rules); got != tc.want {
			t.Errorf("ParseRules(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("set/get broken")
	}
	if b.Count() != 3 {
		t.Errorf("count = %d", b.Count())
	}
	d := NewBitset(130)
	d.Or(b)
	if d.Count() != 3 {
		t.Error("or broken")
	}
}
