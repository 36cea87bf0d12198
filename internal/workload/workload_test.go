package workload

import (
	"fmt"
	"strings"
	"testing"
)

const sampleText = `# test workload
q|10|for $i in collection("items")/site/item where $i/price > 5 return $i/name
q|2|SELECT 1 FROM items WHERE XMLEXISTS('$d/site/item[quantity = 3]' PASSING doc AS "d")
i|1|items|<site><item><price>9</price></item></site>
d|0.5|items|/site/item[quantity = 0]
`

func TestParseAndFormatRoundTrip(t *testing.T) {
	w, err := Parse("test", sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 2 || len(w.Updates) != 2 {
		t.Fatalf("parsed %d queries, %d updates", len(w.Queries), len(w.Updates))
	}
	if w.Queries[0].Weight != 10 || w.Queries[1].Weight != 2 {
		t.Error("weights wrong")
	}
	if w.Queries[0].Query.ID != "Q1" || w.Queries[1].Query.ID != "Q2" {
		t.Error("query IDs not assigned")
	}
	if w.Updates[0].Kind != UpdateInsert || w.Updates[1].Kind != UpdateDelete {
		t.Error("update kinds wrong")
	}
	if w.TotalQueryWeight() != 12 {
		t.Errorf("TotalQueryWeight = %f", w.TotalQueryWeight())
	}
	if w.TotalUpdateWeight() != 1.5 {
		t.Errorf("TotalUpdateWeight = %f", w.TotalUpdateWeight())
	}

	w2, err := Parse("rt", w.Format())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, w.Format())
	}
	if len(w2.Queries) != len(w.Queries) || len(w2.Updates) != len(w.Updates) {
		t.Error("round trip lost records")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x|1|whatever",
		"q|zero|for $i in collection(\"c\") return $i",
		"q|-3|for $i in collection(\"c\") return $i",
		"q|1|not a query at all !!!",
		"i|1|no-xml-field",
		"d|1|items|not a path",
		"q1 for ...",
		"q|1",
	}
	for _, line := range bad {
		if _, err := Parse("bad", line); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", line)
		}
	}
}

// TestParseRejectsNonFiniteWeights pins the weight check at the parse
// boundary: NaN and infinite weights are refused on every record kind,
// while the same records with a finite weight parse.
func TestParseRejectsNonFiniteWeights(t *testing.T) {
	records := map[string]string{
		"q": `q|%s|for $i in collection("c")/a/b where $i/c > 5 return $i`,
		"i": `i|%s|c|<a><b><c>7</c></b></a>`,
		"d": `d|%s|c|/a/b[c > 5]`,
	}
	for kind, format := range records {
		if _, err := Parse("ok", fmt.Sprintf(format, "2")); err != nil {
			t.Fatalf("%s record with weight 2: %v", kind, err)
		}
		for _, weight := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
			line := fmt.Sprintf(format, weight)
			if _, err := Parse("bad", line); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", line)
			}
		}
	}
}

// TestParseRejectsMalformedInsertDocument pins the insert check at the
// parse boundary: a document that does not parse is refused with its
// line number, so it never reaches the advisor's update costing.
func TestParseRejectsMalformedInsertDocument(t *testing.T) {
	text := "# header\nq|1|for $i in collection(\"auction\")/site/item return $i\ni|1|auction|<site><open>\n"
	_, err := Parse("bad", text)
	if err == nil {
		t.Fatal("Parse accepted an insert whose document does not parse")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "insert document") {
		t.Errorf("error %q does not name line 3's insert document", err)
	}
	if _, err := Parse("ok", strings.Replace(text, "<site><open>", "<site><open/></site>", 1)); err != nil {
		t.Errorf("well-formed insert refused: %v", err)
	}
}

// TestAddInsertRejectsMalformedDocument checks the programmatic path
// refuses what the text format refuses, and that an accepted insert
// carries its parsed document.
func TestAddInsertRejectsMalformedDocument(t *testing.T) {
	w := &Workload{}
	if err := w.AddInsert(1, "auction", "<site><open>"); err == nil {
		t.Fatal("AddInsert accepted a document that does not parse")
	}
	if len(w.Updates) != 0 {
		t.Fatalf("a refused insert was appended: %d updates", len(w.Updates))
	}
	if err := w.AddInsert(1, "auction", "<site><open/></site>"); err != nil {
		t.Fatalf("well-formed insert refused: %v", err)
	}
	if d := w.Updates[0].Doc; d == nil || d.Root == nil || d.Root.Name != "site" {
		t.Errorf("accepted insert carries document %+v, want the parse of <site>", d)
	}
}

func TestCollections(t *testing.T) {
	w, _ := Parse("test", sampleText)
	cols := w.Collections()
	if len(cols) != 1 || cols[0] != "items" {
		t.Errorf("Collections = %v", cols)
	}
}

func TestSplitDeterministic(t *testing.T) {
	w := &Workload{Name: "s"}
	for i := 0; i < 40; i++ {
		w.MustAddQuery(1, `for $i in collection("c")/a/b return $i`)
	}
	tr1, te1 := w.Split(0.7, 42)
	tr2, te2 := w.Split(0.7, 42)
	if len(tr1.Queries) != len(tr2.Queries) || len(te1.Queries) != len(te2.Queries) {
		t.Error("Split not deterministic")
	}
	if len(tr1.Queries)+len(te1.Queries) != 40 {
		t.Error("Split lost queries")
	}
	if len(tr1.Queries) < 20 || len(tr1.Queries) > 36 {
		t.Errorf("train size %d implausible for frac 0.7", len(tr1.Queries))
	}
}

func TestFormatMentionsCounts(t *testing.T) {
	w, _ := Parse("test", sampleText)
	if !strings.Contains(w.Format(), "2 queries, 2 updates") {
		t.Errorf("Format header: %s", w.Format())
	}
}
