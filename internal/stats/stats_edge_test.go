package stats

import (
	"fmt"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/xindex"
)

func TestDateCounting(t *testing.T) {
	c := store.NewCollection("d")
	c.InsertXML(`<r><when>2008-06-09</when><when>2008-06-10</when><when>not a date</when></r>`)
	s := Collect(c)
	ps := s.Paths["/r/when"]
	if ps == nil {
		t.Fatal("missing path")
	}
	if got := ps.Entries[sqltype.Date]; got != 2 {
		t.Errorf("DATE entries = %d, want 2", got)
	}
	if got := ps.Entries[sqltype.Varchar]; got != 3 {
		t.Errorf("VARCHAR entries = %d, want 3", got)
	}
	if got := s.TypedCardinality(pattern.MustParse("//when"), sqltype.Date); got != 2 {
		t.Errorf("typed date cardinality = %d", got)
	}
}

func TestStringRangeSelectivity(t *testing.T) {
	c := store.NewCollection("s")
	var sb []byte
	sb = append(sb, "<r>"...)
	for i := 0; i < 260; i++ {
		sb = append(sb, fmt.Sprintf("<n>name%03d</n>", i)...)
	}
	sb = append(sb, "</r>"...)
	c.InsertXML(string(sb))
	s := Collect(c)
	p := pattern.MustParse("//n")
	v, _ := sqltype.Cast(sqltype.Varchar, "name130")
	sel := s.Selectivity(p, sqltype.Lt, v)
	if sel < 0.35 || sel > 0.65 {
		t.Errorf("string Lt selectivity = %f, want ~0.5", sel)
	}
	selGe := s.Selectivity(p, sqltype.Ge, v)
	if diff := sel + selGe; diff < 0.9 || diff > 1.1 {
		t.Errorf("Lt + Ge = %f, want ~1", diff)
	}
}

func TestSelectivityBounds(t *testing.T) {
	c := store.NewCollection("b")
	for i := 0; i < 50; i++ {
		c.InsertXML(fmt.Sprintf(`<r><v>%d</v><s>txt%d</s></r>`, i%7, i%13))
	}
	s := Collect(c)
	for _, tc := range []struct {
		pat string
		op  sqltype.CmpOp
		raw string
		ty  sqltype.Type
	}{
		{"//v", sqltype.Eq, "3", sqltype.Double},
		{"//v", sqltype.Ne, "3", sqltype.Double},
		{"//v", sqltype.Lt, "-100", sqltype.Double},
		{"//v", sqltype.Gt, "1e9", sqltype.Double},
		{"//s", sqltype.Eq, "txt5", sqltype.Varchar},
		{"//s", sqltype.ContainsSubstr, "txt", sqltype.Varchar},
		{"//s", sqltype.Le, "txt9", sqltype.Varchar},
	} {
		v, _ := sqltype.Cast(tc.ty, tc.raw)
		sel := s.Selectivity(pattern.MustParse(tc.pat), tc.op, v)
		if sel < 0 || sel > 1 {
			t.Errorf("selectivity(%s %v %s) = %f out of [0,1]", tc.pat, tc.op, tc.raw, sel)
		}
	}
}

func TestVarcharIndexBytesUseAvgLength(t *testing.T) {
	short := store.NewCollection("short")
	long := store.NewCollection("long")
	for i := 0; i < 40; i++ {
		short.InsertXML(`<r><v>ab</v></r>`)
		long.InsertXML(`<r><v>abcdefghijklmnopqrstuvwxyz0123456789</v></r>`)
	}
	ss, sl := Collect(short), Collect(long)
	p := pattern.MustParse("//v")
	bShort := ss.EstimateIndexBytes(p, sqltype.Varchar)
	bLong := sl.EstimateIndexBytes(p, sqltype.Varchar)
	if bLong <= bShort {
		t.Errorf("long values should give a bigger index: %d vs %d", bLong, bShort)
	}
}

// TestEmptyValuesCountAsIndexed pins the entry rule: a node is an entry
// of a type-t index iff sqltype.Cast(t, value) accepts it, so an empty
// element is one VARCHAR entry and no DOUBLE or DATE entry, and its
// statistics agree with the physical index.
func TestEmptyValuesCountAsIndexed(t *testing.T) {
	c := store.NewCollection("a")
	c.InsertXML(`<r><v>abcd</v><v>ef</v><empty/><n> 7 </n></r>`)
	s := Collect(c)
	if ps := s.Paths["/r/v"]; ps.TotalValueLen != 6 {
		t.Errorf("TotalValueLen = %d, want 6", ps.TotalValueLen)
	}
	pe := s.Paths["/r/empty"]
	if want := [...]int64{sqltype.Varchar: 1, sqltype.Double: 0, sqltype.Date: 0}; pe.Entries != want {
		t.Errorf("empty element entries = %v, want %v", pe.Entries, want)
	}
	// A padded number is one entry of each type whose cast accepts it.
	if got := s.Paths["/r/n"].Entries; got[sqltype.Varchar] != 1 || got[sqltype.Double] != 1 {
		t.Errorf("padded number entries = %v", got)
	}
	// Structural inner element: value is concatenated descendant text.
	if pr := s.Paths["/r"]; pr.Entries[sqltype.Varchar] != 1 {
		t.Errorf("inner element VARCHAR entries = %d", pr.Entries[sqltype.Varchar])
	}
	for _, tc := range []struct {
		pat string
		typ sqltype.Type
	}{{"/r/empty", sqltype.Varchar}, {"/r/empty", sqltype.Double}, {"//*", sqltype.Varchar}, {"//n", sqltype.Double}} {
		p := pattern.MustParse(tc.pat)
		built := xindex.Build("ix", p, tc.typ, c).Entries()
		if est := s.TypedCardinality(p, tc.typ); est != int64(built) {
			t.Errorf("%s AS %v: estimated %d entries, built %d", tc.pat, tc.typ, est, built)
		}
	}
}

func TestPathListSortedAndComplete(t *testing.T) {
	c := store.NewCollection("p")
	c.InsertXML(`<r a="1"><b>x</b><c/></r>`)
	s := Collect(c)
	list := s.PathList()
	want := []string{"/r", "/r/@a", "/r/b", "/r/b/text()", "/r/c"}
	if len(list) != len(want) {
		t.Fatalf("PathList = %v", list)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Errorf("PathList[%d] = %s, want %s", i, list[i], want[i])
		}
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewEquiDepth([]float64{5, 5, 5, 5}, 8)
	if got := h.FractionBelow(5); got != 0 {
		t.Errorf("FractionBelow(min) = %f", got)
	}
	if got := h.FractionBelow(6); got != 1 {
		t.Errorf("FractionBelow(above) = %f", got)
	}
	if eq := h.FractionEqual(5); eq <= 0 {
		t.Errorf("FractionEqual(5) = %f", eq)
	}
	if eq := h.FractionEqual(99); eq != 0 {
		t.Errorf("FractionEqual(99) = %f", eq)
	}
}
