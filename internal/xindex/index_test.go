package xindex

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
)

func testCollection(t testing.TB, n int) *store.Collection {
	t.Helper()
	c := store.NewCollection("items")
	for i := 0; i < n; i++ {
		region := []string{"namerica", "africa"}[i%2]
		src := fmt.Sprintf(
			`<site><regions><%s><item id="i%d"><quantity>%d</quantity><name>thing %d</name></item></%s></regions></site>`,
			region, i, i%7, i, region)
		if _, err := c.InsertXML(src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestBuildAndScan(t *testing.T) {
	c := testCollection(t, 40)
	ix := Build("IQ", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double, c)
	if ix.Entries() != 40 {
		t.Fatalf("Entries = %d, want 40", ix.Entries())
	}
	if err := ix.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	v, _ := sqltype.Cast(sqltype.Double, "3")
	res, err := ix.Scan(sqltype.Eq, v)
	if err != nil {
		t.Fatal(err)
	}
	// quantities are i%7 for i in 0..39: value 3 at i=3,10,17,24,31,38.
	if len(res.Entries) != 6 {
		t.Errorf("Eq(3) = %d entries, want 6", len(res.Entries))
	}
	res, err = ix.Scan(sqltype.Lt, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Entries {
		if e.Key.F >= 3 {
			t.Errorf("Lt(3) returned %v", e.Key)
		}
	}
	if res.LeavesRead < 1 || res.TreeTraveld < 1 {
		t.Error("scan accounting missing")
	}
}

func TestPartialIndexing(t *testing.T) {
	c := testCollection(t, 20)
	// Pattern restricted to namerica only: half the items.
	ix := Build("INA", pattern.MustParse("/site/regions/namerica/item/quantity"), sqltype.Double, c)
	if ix.Entries() != 10 {
		t.Errorf("partial index entries = %d, want 10", ix.Entries())
	}
}

func TestTypeRejectsInvalidValues(t *testing.T) {
	c := testCollection(t, 10)
	// Names are not numeric: a DOUBLE index on names is empty.
	ix := Build("IN", pattern.MustParse("//name"), sqltype.Double, c)
	if ix.Entries() != 0 {
		t.Errorf("DOUBLE index over names has %d entries, want 0", ix.Entries())
	}
	ixs := Build("INS", pattern.MustParse("//name"), sqltype.Varchar, c)
	if ixs.Entries() != 10 {
		t.Errorf("VARCHAR index over names has %d entries, want 10", ixs.Entries())
	}
}

func TestAttributeIndex(t *testing.T) {
	c := testCollection(t, 10)
	ix := Build("IA", pattern.MustParse("//item/@id"), sqltype.Varchar, c)
	if ix.Entries() != 10 {
		t.Fatalf("attr index entries = %d", ix.Entries())
	}
	v, _ := sqltype.Cast(sqltype.Varchar, "i3")
	res, err := ix.Scan(sqltype.Eq, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Errorf("Eq(i3) = %d entries", len(res.Entries))
	}
}

func TestInsertDeleteDocMaintenance(t *testing.T) {
	c := testCollection(t, 10)
	ix := Build("IQ", pattern.MustParse("//quantity"), sqltype.Double, c)
	id, err := c.InsertXML(`<site><regions><europe><item id="x"><quantity>42</quantity></item></europe></regions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Get(id)
	added := ix.InsertDoc(doc)
	if added != 1 {
		t.Errorf("InsertDoc added %d entries, want 1", added)
	}
	if ix.Entries() != 11 {
		t.Errorf("Entries = %d", ix.Entries())
	}
	v, _ := sqltype.Cast(sqltype.Double, "42")
	res, _ := ix.Scan(sqltype.Eq, v)
	if len(res.Entries) != 1 {
		t.Errorf("new doc not findable")
	}
	removed := ix.DeleteDoc(doc)
	if removed != 1 || ix.Entries() != 10 {
		t.Errorf("DeleteDoc removed %d, entries %d", removed, ix.Entries())
	}
	res, _ = ix.Scan(sqltype.Eq, v)
	if len(res.Entries) != 0 {
		t.Error("deleted doc still in index")
	}
}

// TestEntryPathsNameTheNodePath checks that every entry's path-table
// word, after a bulk build and an incremental insert, is the parsed root
// path of the node the entry points at, and that nodes sharing a path
// share a slot.
func TestEntryPathsNameTheNodePath(t *testing.T) {
	c := testCollection(t, 12)
	ix := Build("ANY", pattern.MustParse("/site/regions/*/item/*"), sqltype.Varchar, c)
	id, err := c.InsertXML(`<site><regions><europe><item id="x"><quantity>4</quantity><name>n</name></item></europe></regions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	if ix.InsertDoc(c.Get(id)) != 2 {
		t.Fatal("insert added the wrong number of entries")
	}
	slots := map[string]int32{}
	n := 0
	ix.Tree().All(func(e Entry) bool {
		n++
		path := c.Get(e.Doc).Node(e.Node).RootPath()
		want, err := pattern.ParseWord(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.PathWord(e.Path); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("entry (%d, %d): path word %v, node path %s", e.Doc, e.Node, got, path)
		}
		if prev, ok := slots[path]; ok && prev != e.Path {
			t.Errorf("path %s has slots %d and %d", path, prev, e.Path)
		}
		slots[path] = e.Path
		return true
	})
	// quantity and name under three regions.
	if n != 26 || len(slots) != 6 {
		t.Fatalf("%d entries over %d paths, want 26 over 6", n, len(slots))
	}
}

func TestScanNeAndContains(t *testing.T) {
	c := testCollection(t, 14)
	ix := Build("IQ", pattern.MustParse("//quantity"), sqltype.Double, c)
	v, _ := sqltype.Cast(sqltype.Double, "0")
	res, err := ix.Scan(sqltype.Ne, v)
	if err != nil {
		t.Fatal(err)
	}
	// i%7 for i in 0..13: two zeros.
	if len(res.Entries) != 12 {
		t.Errorf("Ne(0) = %d, want 12", len(res.Entries))
	}
	ixs := Build("INM", pattern.MustParse("//name"), sqltype.Varchar, c)
	sv, _ := sqltype.Cast(sqltype.Varchar, "thing 1")
	res, err = ixs.Scan(sqltype.ContainsSubstr, sv)
	if err != nil {
		t.Fatal(err)
	}
	// "thing 1", "thing 10".."thing 13": 5 matches.
	if len(res.Entries) != 5 {
		t.Errorf("Contains(thing 1) = %d, want 5", len(res.Entries))
	}
}

func TestScanTypeMismatch(t *testing.T) {
	c := testCollection(t, 5)
	ix := Build("IQ", pattern.MustParse("//quantity"), sqltype.Double, c)
	sv, _ := sqltype.Cast(sqltype.Varchar, "3")
	if _, err := ix.Scan(sqltype.Eq, sv); err == nil {
		t.Error("type-mismatched scan should fail")
	}
}

func TestPagesGrowWithData(t *testing.T) {
	small := Build("S", pattern.MustParse("//quantity"), sqltype.Double, testCollection(t, 10))
	big := Build("B", pattern.MustParse("//quantity"), sqltype.Double, testCollection(t, 2000))
	if big.Pages() <= small.Pages() {
		t.Errorf("pages: big=%d small=%d", big.Pages(), small.Pages())
	}
	if big.Height() < small.Height() {
		t.Errorf("height: big=%d small=%d", big.Height(), small.Height())
	}
}

func TestDDL(t *testing.T) {
	got := DDL("IDX_Q", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double)
	want := "CREATE INDEX IDX_Q ON ITEMS(DOC) GENERATE KEY USING XMLPATTERN '/site/regions/*/item/quantity' AS SQL DOUBLE"
	if got != want {
		t.Errorf("DDL = %q", got)
	}
	if !strings.Contains(DDL("I", "c", pattern.MustParse("//a"), sqltype.Varchar), "VARCHAR(100)") {
		t.Error("varchar DDL missing type")
	}
}
