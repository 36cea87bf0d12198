package xmldoc

import (
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"
)

const sampleDoc = `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE site [ <!ELEMENT site ANY> ]>
<site>
  <!-- a comment -->
  <regions>
    <namerica>
      <item id="i1" featured="yes">
        <name>Fast bicycle</name>
        <quantity>5</quantity>
        <price>120.50</price>
      </item>
      <item id="i2">
        <name>Slow &amp; steady tortoise</name>
        <quantity>1</quantity>
      </item>
    </namerica>
    <africa>
      <item id="i3">
        <name>Carved mask</name>
        <quantity>12</quantity>
      </item>
    </africa>
  </regions>
  <people>
    <person id="p1">
      <name>Alice</name>
      <emailaddress>alice@example.com</emailaddress>
    </person>
  </people>
</site>`

func TestParseSample(t *testing.T) {
	doc, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if doc.Root == nil || doc.Root.Name != "site" {
		t.Fatalf("root = %+v, want site", doc.Root)
	}
	regions := doc.Root.ChildElement("regions")
	if regions == nil {
		t.Fatal("missing regions")
	}
	na := regions.ChildElement("namerica")
	if na == nil {
		t.Fatal("missing namerica")
	}
	items := na.ChildElements()
	if len(items) != 2 {
		t.Fatalf("namerica items = %d, want 2", len(items))
	}
	if got, _ := items[0].Attr("id"); got != "i1" {
		t.Errorf("item[0]/@id = %q, want i1", got)
	}
	if got := items[0].ChildElement("quantity").Text(); got != "5" {
		t.Errorf("quantity = %q, want 5", got)
	}
	if got := items[1].ChildElement("name").Text(); got != "Slow & steady tortoise" {
		t.Errorf("entity decoding: got %q", got)
	}
}

func TestNodeIDsAreDensePreorder(t *testing.T) {
	doc := MustParse(sampleDoc)
	for i, n := range doc.Nodes {
		if int(n.ID) != i {
			t.Fatalf("Nodes[%d].ID = %d", i, n.ID)
		}
		if doc.Node(n.ID) != n {
			t.Fatalf("Node(%d) roundtrip failed", n.ID)
		}
	}
	if doc.Node(-1) != nil || doc.Node(NodeID(len(doc.Nodes))) != nil {
		t.Error("out-of-range Node() should return nil")
	}
	if doc.Root.ID != 0 {
		t.Errorf("root ID = %d, want 0", doc.Root.ID)
	}
}

func TestRootPath(t *testing.T) {
	doc := MustParse(sampleDoc)
	var gotQuantity, gotAttr, gotText string
	doc.Walk(func(n *Node) bool {
		switch {
		case n.Kind == KindElement && n.Name == "quantity" && gotQuantity == "":
			gotQuantity = n.RootPath()
		case n.Kind == KindAttribute && n.Name == "id" && gotAttr == "":
			gotAttr = n.RootPath()
		case n.Kind == KindText && strings.Contains(n.Value, "Fast") && gotText == "":
			gotText = n.RootPath()
		}
		return true
	})
	if want := "/site/regions/namerica/item/quantity"; gotQuantity != want {
		t.Errorf("quantity path = %q, want %q", gotQuantity, want)
	}
	if want := "/site/regions/namerica/item/@id"; gotAttr != want {
		t.Errorf("attr path = %q, want %q", gotAttr, want)
	}
	if want := "/site/regions/namerica/item/name/text()"; gotText != want {
		t.Errorf("text path = %q, want %q", gotText, want)
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc := MustParse(sampleDoc)
	visited := 0
	doc.Walk(func(n *Node) bool {
		visited++
		return !(n.Kind == KindElement && n.Name == "regions")
	})
	// regions subtree skipped: only site, regions, people subtree, attrs.
	all := 0
	doc.Walk(func(n *Node) bool { all++; return true })
	if visited >= all {
		t.Errorf("skip did not prune: visited=%d all=%d", visited, all)
	}
}

func TestTextConcatenation(t *testing.T) {
	doc := MustParse(`<a>one<b>two</b>three</a>`)
	if got := doc.Root.Text(); got != "onetwothree" {
		t.Errorf("Text() = %q, want onetwothree", got)
	}
}

func TestSelfClosingAndCDATA(t *testing.T) {
	doc := MustParse(`<a><b/><c><![CDATA[x < y & z]]></c></a>`)
	b := doc.Root.ChildElement("b")
	if b == nil || len(b.Children) != 0 {
		t.Fatal("self-closing element broken")
	}
	if got := doc.Root.ChildElement("c").Text(); got != "x < y & z" {
		t.Errorf("CDATA = %q", got)
	}
}

func TestNumericEntities(t *testing.T) {
	doc := MustParse(`<a v="&#65;&#x42;">&#67;</a>`)
	if got, _ := doc.Root.Attr("v"); got != "AB" {
		t.Errorf("attr = %q, want AB", got)
	}
	if got := doc.Root.Text(); got != "C" {
		t.Errorf("text = %q, want C", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no root", "   "},
		{"mismatched tags", "<a><b></a></b>"},
		{"unterminated", "<a><b>"},
		{"content after root", "<a/><b/>"},
		{"bad entity", "<a>&nosuch;</a>"},
		{"unterminated entity", "<a>&amp</a>"},
		{"garbage before root", "hello<a/>"},
		{"unterminated attr", `<a v="x>`},
		{"missing attr value", `<a v></a>`},
		{"unterminated comment", `<a><!-- foo</a>`},
		{"unterminated cdata", `<a><![CDATA[x</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.src); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseErrorMessageHasOffset(t *testing.T) {
	_, err := ParseString("<a><b></c></a>")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Offset <= 0 || !strings.Contains(pe.Error(), "offset") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestSerializeRoundTrip checks Parse(Serialize(d)) preserves structure.
func TestSerializeRoundTrip(t *testing.T) {
	doc := MustParse(sampleDoc)
	out := doc.Serialize()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\nserialized: %s", err, out)
	}
	if !equalTree(doc.Root, doc2.Root) {
		t.Errorf("round trip changed tree:\n%s\nvs\n%s", out, doc2.Serialize())
	}
}

func equalTree(a, b *Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name || a.Attrs[i].Value != b.Attrs[i].Value {
			return false
		}
	}
	for i := range a.Children {
		if !equalTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestAgainstEncodingXML cross-checks our parser against the stdlib
// tokenizer on the sample document: same element sequence in document
// order.
func TestAgainstEncodingXML(t *testing.T) {
	doc := MustParse(sampleDoc)
	var ours []string
	doc.Walk(func(n *Node) bool {
		if n.Kind == KindElement {
			ours = append(ours, n.Name)
		}
		return true
	})

	dec := xml.NewDecoder(strings.NewReader(sampleDoc))
	var theirs []string
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		if se, ok := tok.(xml.StartElement); ok {
			theirs = append(theirs, se.Name.Local)
		}
	}
	if strings.Join(ours, ",") != strings.Join(theirs, ",") {
		t.Errorf("element order mismatch:\nours:   %v\nstdlib: %v", ours, theirs)
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !utf8Valid(s) {
			return true
		}
		doc := &Document{Root: NewElement("r")}
		doc.Root.SetAttr("a", s)
		doc.Root.AppendChild(NewText(s))
		doc.Renumber()
		re, err := ParseString(doc.Serialize())
		if err != nil {
			return false
		}
		got, _ := re.Root.Attr("a")
		if got != s {
			return false
		}
		// Whitespace-only text is dropped by design.
		if strings.TrimSpace(s) == "" {
			return len(re.Root.Children) == 0
		}
		return re.Root.Text() == s
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func utf8Valid(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
		// Control characters other than \t\n\r are not legal XML chars.
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
	}
	return true
}

func TestRenumberHandBuiltTree(t *testing.T) {
	root := NewElement("site")
	item := NewElement("item")
	item.SetAttr("id", "1")
	item.AppendChild(Elem("name", "thing"))
	root.AppendChild(item)
	doc := &Document{Root: root}
	doc.Renumber()
	if doc.NodeCount() != 5 { // site, item, @id, name, text
		t.Fatalf("NodeCount = %d, want 5", doc.NodeCount())
	}
	if doc.ElementCount() != 3 {
		t.Fatalf("ElementCount = %d, want 3", doc.ElementCount())
	}
	// Parents must be wired.
	if item.Parent != root || item.Attrs[0].Parent != item {
		t.Error("Renumber did not set parents")
	}
}

func TestAttrHelpers(t *testing.T) {
	doc := MustParse(`<a x="1" y="2"/>`)
	if v, ok := doc.Root.Attr("y"); !ok || v != "2" {
		t.Errorf("Attr(y) = %q,%v", v, ok)
	}
	if _, ok := doc.Root.Attr("z"); ok {
		t.Error("Attr(z) should be missing")
	}
	if n := doc.Root.AttrNode("x"); n == nil || n.Value != "1" {
		t.Error("AttrNode(x) broken")
	}
	if n := doc.Root.AttrNode("z"); n != nil {
		t.Error("AttrNode(z) should be nil")
	}
}

func BenchmarkParseSample(b *testing.B) {
	src := []byte(sampleDoc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
