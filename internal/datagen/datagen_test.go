package datagen

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// nodes counts the nodes the pattern matches: the entries of its VARCHAR
// index, which holds every node.
func nodes(s *stats.Stats, pat string) int64 {
	return s.TypedCardinality(pattern.MustParse(pat), sqltype.Varchar)
}

func TestXMarkDeterministic(t *testing.T) {
	s1, s2 := store.New(), store.New()
	c1, err := GenerateXMark(s1, XMarkConfig{Docs: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := GenerateXMark(s2, XMarkConfig{Docs: 30, Seed: 7})
	if c1.NodeCount() != c2.NodeCount() || c1.Bytes() != c2.Bytes() {
		t.Error("same seed should generate identical data")
	}
	s3 := store.New()
	c3, _ := GenerateXMark(s3, XMarkConfig{Docs: 30, Seed: 8})
	if c1.Bytes() == c3.Bytes() {
		t.Error("different seeds should differ (almost surely)")
	}
}

func TestXMarkSchemaPaths(t *testing.T) {
	st := store.New()
	col, _ := GenerateXMark(st, XMarkConfig{Docs: 200, Seed: 1})
	s := stats.Collect(col)
	// The paper's example pattern must exist.
	for _, pat := range []string{
		"/site/regions/namerica/item/quantity",
		"/site/regions/*/item/price",
		"/site/people/person/profile/@income",
		"/site/open_auctions/open_auction/initial",
		"/site/closed_auctions/closed_auction/price",
		"//item/@id",
		"//incategory/@category",
	} {
		if nodes(s, pat) == 0 {
			t.Errorf("no nodes for %s", pat)
		}
	}
	// Region skew: namerica should dominate australia.
	na := nodes(s, "/site/regions/namerica/item")
	au := nodes(s, "/site/regions/australia/item")
	if na <= au {
		t.Errorf("region skew missing: namerica=%d australia=%d", na, au)
	}
}

func TestTPoXSchemaPaths(t *testing.T) {
	st := store.New()
	if err := GenerateTPoX(st, TPoXConfig{Securities: 20, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if st.Get("security").Len() != 20 {
		t.Errorf("securities = %d", st.Get("security").Len())
	}
	if st.Get("order").Len() != 200 {
		t.Errorf("orders = %d", st.Get("order").Len())
	}
	if st.Get("custacc").Len() != 100 {
		t.Errorf("custaccs = %d", st.Get("custacc").Len())
	}
	s := stats.Collect(st.Get("security"))
	for _, pat := range []string{
		"/Security/Symbol",
		"/Security/SecurityInformation/Sector",
		"/Security/Price/LastTrade",
	} {
		if nodes(s, pat) == 0 {
			t.Errorf("no nodes for %s", pat)
		}
	}
	so := stats.Collect(st.Get("order"))
	if nodes(so, "/FIXML/Order/@Acct") != 200 {
		t.Error("order @Acct missing")
	}
	sc := stats.Collect(st.Get("custacc"))
	if nodes(sc, "//Account/Balance/OnlineActualBal/Amount") == 0 {
		t.Error("custacc balance missing")
	}
}

func TestWorkloadQueriesParseAndRun(t *testing.T) {
	st := store.New()
	GenerateXMark(st, XMarkConfig{Docs: 60, Seed: 2})
	GenerateTPoX(st, TPoXConfig{Securities: 10, Seed: 2})
	cat := catalog.New(st)
	ex := executor.New(cat)

	xw := XMarkWorkload(20, 5)
	if len(xw.Queries) != 20 {
		t.Fatalf("xmark workload has %d queries", len(xw.Queries))
	}
	tw := TPoXWorkload(18, 5, 10)
	if len(tw.Queries) != 18 {
		t.Fatalf("tpox workload has %d queries", len(tw.Queries))
	}
	rows := 0
	for _, e := range append(xw.Queries, tw.Queries...) {
		res, err := ex.Run(e.Query, nil)
		if err != nil {
			t.Fatalf("query %q failed: %v", e.Query.Text, err)
		}
		rows += res.Rows
	}
	if rows == 0 {
		t.Error("entire workload returned zero rows; generator and queries disagree")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := XMarkWorkload(10, 9)
	b := XMarkWorkload(10, 9)
	for i := range a.Queries {
		if a.Queries[i].Query.Text != b.Queries[i].Query.Text || a.Queries[i].Weight != b.Queries[i].Weight {
			t.Fatal("same seed must give same workload")
		}
	}
}

func TestPaperWorkloadShape(t *testing.T) {
	w := XMarkPaperWorkload()
	if len(w.Queries) != 3 {
		t.Fatalf("paper workload = %d queries", len(w.Queries))
	}
	// Queries must produce the two quantity patterns plus a price pattern.
	var sawNA, sawAF, sawPrice bool
	for _, e := range w.Queries {
		for _, l := range e.Query.Legs() {
			switch l.Pattern.String() {
			case "/site/regions/namerica/item/quantity":
				sawNA = true
			case "/site/regions/africa/item/quantity":
				sawAF = true
			case "/site/regions/samerica/item/price":
				sawPrice = true
			}
		}
	}
	if !sawNA || !sawAF || !sawPrice {
		t.Errorf("paper legs missing: na=%v af=%v price=%v", sawNA, sawAF, sawPrice)
	}
}

func TestUpdateGenerators(t *testing.T) {
	w := XMarkWorkload(5, 1)
	XMarkUpdates(w, 10, 1)
	if len(w.Updates) != 2 || w.TotalUpdateWeight() != 10 {
		t.Errorf("updates = %d, weight = %f", len(w.Updates), w.TotalUpdateWeight())
	}
	tw := TPoXWorkload(5, 1, 10)
	TPoXUpdates(tw, 5, 1, 10)
	if len(tw.Updates) != 2 || tw.TotalUpdateWeight() != 5 {
		t.Errorf("tpox updates = %d, weight = %f", len(tw.Updates), tw.TotalUpdateWeight())
	}
	// The insert documents must be parseable XML.
	for _, u := range append(w.Updates, tw.Updates...) {
		if u.Kind == workload.UpdateInsert {
			if _, err := xmldoc.ParseString(u.DocXML); err != nil {
				t.Errorf("insert document does not parse: %v", err)
			}
		}
	}
}
