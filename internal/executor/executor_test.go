package executor

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/store"
)

func fixture(t testing.TB, n int) *catalog.Catalog {
	t.Helper()
	st := store.New()
	c := st.MustCreate("items")
	for i := 0; i < n; i++ {
		region := []string{"namerica", "africa", "europe", "asia"}[i%4]
		src := fmt.Sprintf(
			`<site><regions><%[1]s><item id="i%[2]d"><name>item %[2]d</name><quantity>%[3]d</quantity><price>%[4]d</price></item></%[1]s></regions></site>`,
			region, i, i%10, (i*7)%1000)
		if _, err := c.InsertXML(src); err != nil {
			t.Fatal(err)
		}
	}
	return catalog.New(st)
}

func parse(t testing.TB, src string) *querylang.Query {
	t.Helper()
	q, err := querylang.ParseAuto(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestDocScanCounts(t *testing.T) {
	cat := fixture(t, 100)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 return $i/name`)
	res, err := ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// quantity = i%10 == 3 for i = 3, 13, ..., 93: 10 items.
	if res.Rows != 10 {
		t.Errorf("Rows = %d, want 10", res.Rows)
	}
	if res.Metrics.DocsScanned != 100 {
		t.Errorf("DocsScanned = %d, want 100", res.Metrics.DocsScanned)
	}
	if res.Metrics.ResultNodes != 10 {
		t.Errorf("ResultNodes = %d, want 10", res.Metrics.ResultNodes)
	}
	if res.Metrics.NodesVisited == 0 {
		t.Error("NodesVisited not recorded")
	}
}

func TestIndexPlanMatchesDocScan(t *testing.T) {
	cat := fixture(t, 400)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)

	queries := []string{
		`for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i/name`,
		`for $i in collection("items")/site/regions/*/item where $i/price < 50 return $i`,
		`for $i in collection("items")/site/regions/namerica/item where $i/price >= 900 return $i`,
		`SELECT 1 FROM items WHERE XMLEXISTS('$d/site/regions/africa/item[price < 100]' PASSING doc AS "d")`,
	}
	for _, src := range queries {
		q := parse(t, src)
		scanRes, err := ex.Run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		plan, err := o.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		idxRes, err := ex.Run(q, plan)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if scanRes.Rows != idxRes.Rows {
			t.Errorf("%s:\n  scan rows=%d index rows=%d (plan %s)", src, scanRes.Rows, idxRes.Rows, plan.Describe())
		}
		if plan.UsesIndexes() && idxRes.Metrics.DocsFetched > scanRes.Metrics.DocsScanned {
			t.Errorf("%s: fetched %d > scanned %d", src, idxRes.Metrics.DocsFetched, scanRes.Metrics.DocsScanned)
		}
	}
}

func TestIndexPlanTouchesFewerDocs(t *testing.T) {
	cat := fixture(t, 500)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	plan, _ := o.Optimize(q, nil)
	if !plan.UsesIndexes() {
		t.Fatalf("expected index plan: %s", plan.Describe())
	}
	res, err := ex.Run(q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DocsFetched >= 50 {
		t.Errorf("index plan fetched %d docs; expected a small fraction of 500", res.Metrics.DocsFetched)
	}
	if res.Metrics.NodesVisited == 0 && res.Rows > 0 {
		t.Error("fetched docs should be navigated")
	}
	if len(res.Metrics.IndexesUsed) != 1 || res.Metrics.IndexesUsed[0] != "IP" {
		t.Errorf("IndexesUsed = %v", res.Metrics.IndexesUsed)
	}
}

func TestResidualPathVerification(t *testing.T) {
	cat := fixture(t, 200)
	// General index over all item subelements; query asks namerica only.
	cat.CreateIndex("IGEN", "items", pattern.MustParse("/site/regions/*/item/*"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/namerica/item where $i/price = 7 return $i`)
	plan, _ := o.Optimize(q, nil)
	if !plan.UsesIndexes() {
		t.Skipf("optimizer chose scan: %s", plan.Describe())
	}
	scanRes, _ := ex.Run(q, nil)
	idxRes, err := ex.Run(q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if scanRes.Rows != idxRes.Rows {
		t.Errorf("residual verification broken: scan=%d idx=%d", scanRes.Rows, idxRes.Rows)
	}
}

func TestIndexAndingExecution(t *testing.T) {
	cat := fixture(t, 600)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	cat.CreateIndex("IQ", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/price < 100 and $i/quantity = 3 return $i`)
	plan, _ := o.Optimize(q, nil)
	scanRes, _ := ex.Run(q, nil)
	idxRes, err := ex.Run(q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if scanRes.Rows != idxRes.Rows {
		t.Errorf("scan=%d idx=%d (plan: %s)", scanRes.Rows, idxRes.Rows, plan.Describe())
	}
}

func TestVirtualIndexPlanFailsExecution(t *testing.T) {
	cat := fixture(t, 100)
	o := optimizer.New(cat)
	ex := New(cat)
	st, _ := cat.Stats("items")
	virt := catalog.VirtualDef("V", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double, st)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	plan, _ := o.Optimize(q, []*catalog.IndexDef{virt})
	if !plan.UsesIndexes() {
		t.Skip("virtual index not chosen")
	}
	if _, err := ex.Run(q, plan); err == nil {
		t.Error("executing a plan over an unbuilt virtual index must fail")
	}
}

func TestUnknownCollection(t *testing.T) {
	cat := fixture(t, 1)
	ex := New(cat)
	q := parse(t, `for $i in collection("nosuch")/a return $i`)
	if _, err := ex.Run(q, nil); err == nil {
		t.Error("unknown collection should fail")
	}
}

func TestPerDocumentSemantics(t *testing.T) {
	cat := fixture(t, 40)
	ex := New(cat)
	// XQuery counts binding nodes; SQL/XML counts documents. With one
	// item per document they coincide; verify both paths run.
	xq := parse(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 return $i`)
	sq := parse(t, `SELECT 1 FROM items WHERE XMLEXISTS('$d/site/regions/*/item[quantity = 3]' PASSING doc AS "d")`)
	xres, _ := ex.Run(xq, nil)
	sres, _ := ex.Run(sq, nil)
	if xres.Rows != sres.Rows {
		t.Errorf("XQuery rows=%d SQL rows=%d, want equal for 1-item docs", xres.Rows, sres.Rows)
	}
	if xres.Rows != 4 {
		t.Errorf("rows = %d, want 4", xres.Rows)
	}
}

func TestAggregateAndConstructorQueries(t *testing.T) {
	cat := fixture(t, 30)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/quantity > 5 return count($i)`)
	res, err := ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Error("aggregate query returned no rows")
	}
}

func TestSpeedupOnLargeCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cat := fixture(t, 3000)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	plan, _ := o.Optimize(q, nil)
	if !plan.UsesIndexes() {
		t.Fatal("index expected")
	}
	scanRes, _ := ex.Run(q, nil)
	idxRes, _ := ex.Run(q, plan)
	if idxRes.Rows != scanRes.Rows {
		t.Fatalf("row mismatch %d vs %d", idxRes.Rows, scanRes.Rows)
	}
	// The index execution must navigate far fewer nodes.
	if idxRes.Metrics.NodesVisited*10 > scanRes.Metrics.NodesVisited {
		t.Errorf("index visited %d nodes, scan %d; expected >=10x reduction",
			idxRes.Metrics.NodesVisited, scanRes.Metrics.NodesVisited)
	}
}

func TestIndexORingExecutionMatchesScan(t *testing.T) {
	cat := fixture(t, 700)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := optimizer.New(cat)
	ex := New(cat)
	q := parse(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 or $i/price = 21 return $i/name`)
	plan, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	hasOr := false
	for _, a := range plan.Access {
		if a.IsOr() {
			hasOr = true
		}
	}
	if !hasOr {
		t.Skipf("optimizer chose %s", plan.Describe())
	}
	scanRes, _ := ex.Run(q, nil)
	idxRes, err := ex.Run(q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if scanRes.Rows != idxRes.Rows {
		t.Errorf("OR execution mismatch: scan=%d idx=%d", scanRes.Rows, idxRes.Rows)
	}
	if idxRes.Metrics.DocsFetched >= scanRes.Metrics.DocsScanned {
		t.Errorf("OR plan fetched %d docs of %d", idxRes.Metrics.DocsFetched, scanRes.Metrics.DocsScanned)
	}
}
