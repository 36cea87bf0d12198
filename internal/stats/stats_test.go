package stats

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
)

func itemsCollection(t testing.TB, n int) *store.Collection {
	t.Helper()
	c := store.NewCollection("items")
	for i := 0; i < n; i++ {
		region := []string{"namerica", "africa", "europe"}[i%3]
		src := fmt.Sprintf(
			`<site><regions><%s><item id="i%d"><quantity>%d</quantity><price>%d.50</price><name>item %d</name></item></%s></regions></site>`,
			region, i, i%10, i, i, region)
		if _, err := c.InsertXML(src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCollectBasics(t *testing.T) {
	c := itemsCollection(t, 30)
	s := Collect(c)
	if s.Docs != 30 {
		t.Errorf("Docs = %d", s.Docs)
	}
	if s.Nodes != c.NodeCount() {
		t.Errorf("Nodes = %d, want %d", s.Nodes, c.NodeCount())
	}
	ps := s.Paths["/site/regions/namerica/item/quantity"]
	if ps == nil {
		t.Fatal("missing path stat for quantity")
	}
	if ps.Count != 10 {
		t.Errorf("namerica quantity count = %d, want 10", ps.Count)
	}
	if ps.Entries[sqltype.Double] != ps.Count {
		t.Errorf("quantities should all be numeric: %d vs %d", ps.Entries[sqltype.Double], ps.Count)
	}
	attr := s.Paths["/site/regions/namerica/item/@id"]
	if attr == nil || attr.Count != 10 {
		t.Errorf("attr stat = %+v", attr)
	}
}

func TestCardinalityWithPatterns(t *testing.T) {
	c := itemsCollection(t, 30)
	s := Collect(c)
	cases := []struct {
		pat  string
		want int64
	}{
		{"/site/regions/namerica/item/quantity", 10},
		{"/site/regions/*/item/quantity", 30},
		{"//quantity", 30},
		{"//item", 30},
		{"//item/@id", 30},
		{"/site/regions/africa/item", 10},
		{"//nosuch", 0},
	}
	for _, tc := range cases {
		if got := s.TypedCardinality(pattern.MustParse(tc.pat), sqltype.Varchar); got != tc.want {
			t.Errorf("VARCHAR cardinality of %s = %d, want %d", tc.pat, got, tc.want)
		}
	}
}

func TestTypedCardinality(t *testing.T) {
	c := itemsCollection(t, 30)
	s := Collect(c)
	q := pattern.MustParse("/site/regions/*/item/quantity")
	if got := s.TypedCardinality(q, sqltype.Double); got != 30 {
		t.Errorf("numeric quantity cardinality = %d", got)
	}
	name := pattern.MustParse("/site/regions/*/item/name")
	if got := s.TypedCardinality(name, sqltype.Double); got != 0 {
		t.Errorf("names as DOUBLE = %d, want 0", got)
	}
	if got := s.TypedCardinality(name, sqltype.Varchar); got != 30 {
		t.Errorf("names as VARCHAR = %d, want 30", got)
	}
	if got := s.TypedCardinality(q, sqltype.Date); got != 0 {
		t.Errorf("quantities as DATE = %d, want 0", got)
	}
}

func TestSelectivityEquality(t *testing.T) {
	c := itemsCollection(t, 100)
	s := Collect(c)
	q := pattern.MustParse("//quantity")
	v, _ := sqltype.Cast(sqltype.Double, "5")
	sel := s.Selectivity(q, sqltype.Eq, v)
	// 10 distinct values 0..9 per region path; equality sel ~ 1/10.
	if sel < 0.05 || sel > 0.2 {
		t.Errorf("Eq selectivity = %f, want ~0.1", sel)
	}
}

func TestSelectivityRange(t *testing.T) {
	c := itemsCollection(t, 300)
	s := Collect(c)
	q := pattern.MustParse("//quantity")
	v, _ := sqltype.Cast(sqltype.Double, "5")
	sel := s.Selectivity(q, sqltype.Lt, v)
	// Values 0..9 uniform: P(x < 5) = 0.5.
	if sel < 0.3 || sel > 0.7 {
		t.Errorf("Lt selectivity = %f, want ~0.5", sel)
	}
	if got := s.Selectivity(q, sqltype.Exists, v); got != 1.0 {
		t.Errorf("Exists selectivity = %f, want 1", got)
	}
	// Selectivity over an empty match set.
	if got := s.Selectivity(pattern.MustParse("//nosuch"), sqltype.Eq, v); got != 0 {
		t.Errorf("selectivity of unmatched pattern = %f, want 0", got)
	}
}

func TestIndexSizeEstimates(t *testing.T) {
	c := itemsCollection(t, 50)
	s := Collect(c)
	q := pattern.MustParse("//quantity")
	e := s.TypedCardinality(q, sqltype.Double)
	if e != 50 {
		t.Errorf("entries = %d, want 50", e)
	}
	b := s.EstimateIndexBytes(q, sqltype.Double)
	if b <= 0 {
		t.Errorf("bytes = %d", b)
	}
	p := s.EstimateIndexPages(q, sqltype.Double)
	if p < 1 {
		t.Errorf("pages = %d", p)
	}
	// A more general pattern must never be estimated smaller.
	gen := pattern.MustParse("//*")
	if s.EstimateIndexBytes(gen, sqltype.Varchar) < s.EstimateIndexBytes(q, sqltype.Varchar) {
		t.Error("//* index estimated smaller than //quantity index")
	}
	if s.EstimateIndexPages(pattern.MustParse("//nosuch"), sqltype.Double) != 0 {
		t.Error("empty index should have 0 pages")
	}
}

func TestMatchingCache(t *testing.T) {
	c := itemsCollection(t, 10)
	s := Collect(c)
	p := pattern.MustParse("//item")
	a := s.Matching(p)
	b := s.Matching(p)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("Matching inconsistent: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("cache returned different PathStats")
		}
	}
}

func TestDistinctOverflow(t *testing.T) {
	c := store.NewCollection("big")
	var sb []byte
	sb = append(sb, "<r>"...)
	for i := 0; i < distinctCap+500; i++ {
		sb = append(sb, fmt.Sprintf("<v>%d</v>", i)...)
	}
	sb = append(sb, "</r>"...)
	if _, err := c.InsertXML(string(sb)); err != nil {
		t.Fatal(err)
	}
	s := Collect(c)
	ps := s.Paths["/r/v"]
	if ps == nil {
		t.Fatal("missing /r/v")
	}
	if !ps.distinctOverflow {
		t.Fatal("expected distinct overflow")
	}
	d := ps.Distinct()
	if d < int64(distinctCap) || d > ps.Count {
		t.Errorf("Distinct estimate %d out of [%d, %d]", d, distinctCap, ps.Count)
	}
}

func TestStatsVersionTracksCollection(t *testing.T) {
	c := itemsCollection(t, 5)
	s := Collect(c)
	if s.Version != c.Version() {
		t.Error("snapshot version mismatch")
	}
	c.InsertXML(`<site/>`)
	if s.Version == c.Version() {
		t.Error("version should change after insert")
	}
}

func TestHistogramFractions(t *testing.T) {
	var sample []float64
	for i := 0; i < 1000; i++ {
		sample = append(sample, float64(i))
	}
	h := NewEquiDepth(sample, 32)
	if len(h.Depths) == 0 || len(h.Depths) > 32 {
		t.Fatalf("buckets = %d", len(h.Depths))
	}
	if got := h.FractionBelow(-5); got != 0 {
		t.Errorf("FractionBelow(-5) = %f", got)
	}
	if got := h.FractionBelow(5000); got != 1 {
		t.Errorf("FractionBelow(5000) = %f", got)
	}
	got := h.FractionBelow(500)
	if got < 0.45 || got > 0.55 {
		t.Errorf("FractionBelow(500) = %f, want ~0.5", got)
	}
	if NewEquiDepth(nil, 8) != nil {
		t.Error("empty sample should yield nil histogram")
	}
}

func TestHistogramSkewedData(t *testing.T) {
	// 90% of mass at 1, tail up to 1000: equi-depth keeps the estimate
	// of FractionBelow(2) near 0.9.
	var sample []float64
	for i := 0; i < 900; i++ {
		sample = append(sample, 1)
	}
	for i := 0; i < 100; i++ {
		sample = append(sample, float64(10*i+2))
	}
	h := NewEquiDepth(sample, 16)
	got := h.FractionBelow(2)
	if got < 0.8 || got > 1.0 {
		t.Errorf("skewed FractionBelow(2) = %f, want ~0.9", got)
	}
}

// Property: histogram FractionBelow is monotone and bounded in [0,1].
func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64() * 100
		}
		h := NewEquiDepth(sample, 1+rng.Intn(40))
		prev := -1.0
		for x := -400.0; x <= 400; x += 25 {
			fb := h.FractionBelow(x)
			if fb < 0 || fb > 1 || fb < prev-1e-9 {
				return false
			}
			prev = fb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a generalized pattern's VARCHAR cardinality is >= the
// original's.
func TestCardinalityMonotoneUnderGeneralization(t *testing.T) {
	c := itemsCollection(t, 40)
	s := Collect(c)
	base := pattern.MustParse("/site/regions/namerica/item/quantity")
	for i := 0; i < base.Len(); i++ {
		g, ok := pattern.WildcardAt(base, i)
		if !ok {
			continue
		}
		if s.TypedCardinality(g, sqltype.Varchar) < s.TypedCardinality(base, sqltype.Varchar) {
			t.Errorf("generalization %s has smaller cardinality", g)
		}
	}
}
