package catalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
)

func newTestCatalog(t testing.TB, docs int) *Catalog {
	t.Helper()
	st := store.New()
	c := st.MustCreate("items")
	for i := 0; i < docs; i++ {
		src := fmt.Sprintf(`<site><item id="i%d"><quantity>%d</quantity><name>n%d</name></item></site>`, i, i%5, i)
		if _, err := c.InsertXML(src); err != nil {
			t.Fatal(err)
		}
	}
	return New(st)
}

func TestStatsCachingAndInvalidation(t *testing.T) {
	cat := newTestCatalog(t, 10)
	s1, err := cat.Stats("items")
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := cat.Stats("items")
	if s1 != s2 {
		t.Error("unchanged collection should reuse the snapshot")
	}
	cat.Store().Get("items").InsertXML(`<site/>`)
	s3, _ := cat.Stats("items")
	if s3 == s1 {
		t.Error("stats not refreshed after mutation")
	}
	if _, err := cat.Stats("nosuch"); err == nil {
		t.Error("Stats on unknown collection should fail")
	}
}

func TestCreateIndexRealAndVirtual(t *testing.T) {
	cat := newTestCatalog(t, 20)
	p := pattern.MustParse("/site/item/quantity")

	real, err := cat.CreateIndex("IR", "items", p, sqltype.Double)
	if err != nil {
		t.Fatal(err)
	}
	if real.Virtual || real.Phys == nil {
		t.Error("real index misconfigured")
	}
	if real.Entries() != 20 {
		t.Errorf("real entries = %d", real.Entries())
	}

	st, err := cat.Stats("items")
	if err != nil {
		t.Fatal(err)
	}
	virt := VirtualDef("IV", "items", p, sqltype.Double, st)
	if !virt.Virtual || virt.Phys != nil {
		t.Error("virtual index misconfigured")
	}
	if virt.EstEntries != 20 {
		t.Errorf("virtual estimated entries = %d, want 20", virt.EstEntries)
	}
	if virt.Pages() < 1 {
		t.Error("virtual index should estimate >= 1 page")
	}

	// Virtual estimate should be within 3x of the real size for the same
	// definition (both are page counts of the same data).
	rp, vp := float64(real.Pages()), float64(virt.Pages())
	if vp > 3*rp+2 || rp > 3*vp+2 {
		t.Errorf("size estimate far off: real=%v virtual=%v", rp, vp)
	}

	if _, err := cat.CreateIndex("IR", "items", p, sqltype.Double); err == nil {
		t.Error("duplicate index name should fail")
	}
	if _, err := cat.CreateIndex("IX", "nosuch", p, sqltype.Double); err == nil {
		t.Error("index on unknown collection should fail")
	}
}

func TestDropAndLookup(t *testing.T) {
	cat := newTestCatalog(t, 5)
	p := pattern.MustParse("//quantity")
	cat.CreateIndex("I1", "items", p, sqltype.Double)
	if cat.Index("I1") == nil {
		t.Fatal("Index lookup failed")
	}
	if !cat.DropIndex("I1") || cat.DropIndex("I1") {
		t.Error("drop semantics broken")
	}
	if cat.Index("I1") != nil {
		t.Error("dropped index still present")
	}
}

func TestIndexesSortedAndFiltered(t *testing.T) {
	cat := newTestCatalog(t, 5)
	cat.Store().MustCreate("other").InsertXML(`<r><x>1</x></r>`)
	cat.CreateIndex("B", "items", pattern.MustParse("//quantity"), sqltype.Double)
	cat.CreateIndex("A", "items", pattern.MustParse("//name"), sqltype.Varchar)
	cat.CreateIndex("C", "other", pattern.MustParse("//x"), sqltype.Double)
	got := cat.Indexes("items")
	if len(got) != 2 || got[0].Name != "A" || got[1].Name != "B" {
		t.Errorf("Indexes(items) = %v", got)
	}
	if all := cat.Indexes(""); len(all) != 3 {
		t.Errorf("Indexes(\"\") = %d", len(all))
	}
}

func TestVirtualDefDDL(t *testing.T) {
	cat := newTestCatalog(t, 1)
	st, err := cat.Stats("items")
	if err != nil {
		t.Fatal(err)
	}
	def := VirtualDef("V", "items", pattern.MustParse("//quantity"), sqltype.Double, st)
	if !strings.Contains(def.DDL(), "XMLPATTERN '//quantity'") {
		t.Errorf("DDL = %q", def.DDL())
	}
	if !strings.Contains(def.String(), "virtual") {
		t.Errorf("String = %q", def.String())
	}
	if def.Key() != "items|//quantity|dbl" {
		t.Errorf("Key = %q", def.Key())
	}
}

func TestInsertDocumentMaintainsIndexes(t *testing.T) {
	cat := newTestCatalog(t, 10)
	def, err := cat.CreateIndex("IQ", "items", pattern.MustParse("/site/item/quantity"), sqltype.Double)
	if err != nil {
		t.Fatal(err)
	}
	before := def.Entries()
	id, added, err := cat.InsertDocument("items", `<site><item id="new"><quantity>77</quantity></item></site>`)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	if def.Entries() != before+1 {
		t.Errorf("entries = %d, want %d", def.Entries(), before+1)
	}
	v, _ := sqltype.Cast(sqltype.Double, "77")
	res, err := def.Phys.Scan(sqltype.Eq, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Errorf("new entry not findable: %d", len(res.Entries))
	}
	removed, err := cat.DeleteDocument("items", id)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || def.Entries() != before {
		t.Errorf("removed=%d entries=%d want back to %d", removed, def.Entries(), before)
	}
	res, _ = def.Phys.Scan(sqltype.Eq, v)
	if len(res.Entries) != 0 {
		t.Error("deleted entry still in index")
	}
	if _, err := cat.DeleteDocument("items", id); err == nil {
		t.Error("double delete should fail")
	}
	if _, _, err := cat.InsertDocument("items", "<broken"); err == nil {
		t.Error("bad XML insert should fail")
	}
	if _, _, err := cat.InsertDocument("nosuch", "<a/>"); err == nil {
		t.Error("insert into unknown collection should fail")
	}
}
