package store

import (
	"fmt"
	"testing"

	"repro/internal/xmldoc"
)

func TestInsertGetDelete(t *testing.T) {
	c := NewCollection("items")
	id1, err := c.InsertXML(`<item><name>a</name></item>`)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.InsertXML(`<item><name>b</name></item>`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if d := c.Get(id1); d == nil || d.Root.ChildElement("name").Text() != "a" {
		t.Error("Get(id1) wrong document")
	}
	if !c.Delete(id1) {
		t.Error("Delete(id1) = false")
	}
	if c.Delete(id1) {
		t.Error("double Delete(id1) = true")
	}
	if c.Get(id1) != nil {
		t.Error("deleted doc still retrievable")
	}
	if d := c.Get(id2); d == nil {
		t.Error("Get(id2) lost after unrelated delete")
	}
	if c.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", c.Len())
	}
}

func TestInsertXMLBadInput(t *testing.T) {
	c := NewCollection("x")
	if _, err := c.InsertXML("<broken"); err == nil {
		t.Error("InsertXML on bad input should fail")
	}
	if c.Len() != 0 {
		t.Error("failed insert must not add a document")
	}
}

func TestAccounting(t *testing.T) {
	c := NewCollection("x")
	if c.Bytes() != 0 || c.NodeCount() != 0 || c.Pages() != 0 {
		t.Fatal("empty collection accounting not zero")
	}
	id, _ := c.InsertXML(`<a><b>hello</b><c x="1"/></a>`)
	if c.NodeCount() != 5 { // a, b, text, c, @x
		t.Errorf("NodeCount = %d, want 5", c.NodeCount())
	}
	if c.Bytes() <= 0 || c.Pages() < 1 {
		t.Errorf("Bytes=%d Pages=%d", c.Bytes(), c.Pages())
	}
	before := c.Bytes()
	c.Delete(id)
	if c.Bytes() != 0 || c.NodeCount() != 0 {
		t.Errorf("after delete: Bytes=%d (was %d) NodeCount=%d", c.Bytes(), before, c.NodeCount())
	}
}

func TestVersionBumps(t *testing.T) {
	c := NewCollection("x")
	v0 := c.Version()
	id, _ := c.InsertXML(`<a/>`)
	if c.Version() == v0 {
		t.Error("insert did not bump version")
	}
	v1 := c.Version()
	c.Delete(id)
	if c.Version() == v1 {
		t.Error("delete did not bump version")
	}
}

func TestEachOrderAndStop(t *testing.T) {
	c := NewCollection("x")
	for i := 0; i < 5; i++ {
		c.InsertXML(fmt.Sprintf(`<d n="%d"/>`, i))
	}
	var seen []string
	c.Each(func(d *xmldoc.Document) bool {
		v, _ := d.Root.Attr("n")
		seen = append(seen, v)
		return len(seen) < 3
	})
	if fmt.Sprint(seen) != "[0 1 2]" {
		t.Errorf("Each visited %v", seen)
	}
	docs := c.Docs()
	if len(docs) != 5 {
		t.Fatalf("Docs len = %d", len(docs))
	}
	for i, d := range docs {
		if v, _ := d.Root.Attr("n"); v != fmt.Sprint(i) {
			t.Errorf("Docs[%d] = %s, want %d", i, v, i)
		}
	}
}

func TestDeleteMiddlePreservesOrder(t *testing.T) {
	c := NewCollection("x")
	var ids []xmldoc.DocID
	for i := 0; i < 4; i++ {
		id, _ := c.InsertXML(fmt.Sprintf(`<d n="%d"/>`, i))
		ids = append(ids, id)
	}
	c.Delete(ids[1])
	var seen []string
	c.Each(func(d *xmldoc.Document) bool {
		v, _ := d.Root.Attr("n")
		seen = append(seen, v)
		return true
	})
	if fmt.Sprint(seen) != "[0 2 3]" {
		t.Errorf("order after middle delete: %v", seen)
	}
	// Remaining docs must still be retrievable by ID.
	for _, i := range []int{0, 2, 3} {
		if c.Get(ids[i]) == nil {
			t.Errorf("doc %d lost after middle delete", i)
		}
	}
}

func TestStoreCollections(t *testing.T) {
	s := New()
	if _, err := s.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a"); err == nil {
		t.Error("duplicate Create should fail")
	}
	s.MustCreate("b")
	if got := fmt.Sprint(s.Names()); got != "[a b]" {
		t.Errorf("Names = %s", got)
	}
	if s.Get("a") == nil || s.Get("zzz") != nil {
		t.Error("Get broken")
	}
}
