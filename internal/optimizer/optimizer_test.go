package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/store"
)

// newFixture builds a catalog with n auction-like documents.
func newFixture(t testing.TB, n int) *catalog.Catalog {
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

func mustQuery(t testing.TB, src string) *querylang.Query {
	t.Helper()
	q, err := querylang.ParseAuto(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestDocScanWithoutIndexes(t *testing.T) {
	cat := newFixture(t, 200)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/namerica/item where $i/quantity = 3 return $i/name`)
	plan, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsesIndexes() {
		t.Error("no indexes exist; plan should be a doc scan")
	}
	if plan.Cost != plan.DocScanCost || plan.Cost <= 0 {
		t.Errorf("cost = %f, docscan = %f", plan.Cost, plan.DocScanCost)
	}
	if !strings.Contains(plan.Describe(), "DOCSCAN") {
		t.Error("Describe should mention DOCSCAN")
	}
}

func TestIndexBeatsScanOnSelectiveQuery(t *testing.T) {
	cat := newFixture(t, 500)
	if _, err := cat.CreateIndex("IQ", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double); err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/namerica/item where $i/quantity = 3 return $i/name`)
	plan, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatalf("selective equality should use the index; plan: %s", plan.Describe())
	}
	if plan.Cost >= plan.DocScanCost {
		t.Errorf("index plan not cheaper: %f >= %f", plan.Cost, plan.DocScanCost)
	}
	if got := plan.IndexNames(); len(got) != 1 || got[0] != "IQ" {
		t.Errorf("IndexNames = %v", got)
	}
	// The index pattern properly contains the leg (namerica only), so a
	// residual path check is required.
	if !plan.Access[0].ResidualPathCheck {
		t.Error("residual path check expected for more general index")
	}
}

func TestExactIndexAvoidsResidualCheck(t *testing.T) {
	cat := newFixture(t, 300)
	cat.CreateIndex("IEXACT", "items", pattern.MustParse("/site/regions/namerica/item/quantity"), sqltype.Double)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/namerica/item where $i/quantity = 3 return $i`)
	plan, _ := o.Optimize(q, nil)
	if !plan.UsesIndexes() {
		t.Fatal("index expected")
	}
	if plan.Access[0].ResidualPathCheck {
		t.Error("exact-pattern index should not need a path check")
	}
}

func TestTypeMatchingRejectsWrongType(t *testing.T) {
	cat := newFixture(t, 100)
	cat.CreateIndex("ISTR", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Varchar)
	o := New(cat)
	// quantity = 3 is a DOUBLE comparison; a VARCHAR index cannot serve it.
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 return $i`)
	plan, _ := o.Optimize(q, nil)
	if plan.UsesIndexes() {
		t.Errorf("VARCHAR index must not serve DOUBLE comparison; plan: %s", plan.Describe())
	}
}

func TestUnselectiveRangePrefersScan(t *testing.T) {
	cat := newFixture(t, 300)
	cat.CreateIndex("IQ", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double)
	o := New(cat)
	// quantity >= 0 matches everything: fetching every doc through the
	// index is worse than scanning.
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/quantity >= 0 return $i`)
	plan, _ := o.Optimize(q, nil)
	if plan.UsesIndexes() {
		t.Errorf("unselective predicate should scan; plan: %s", plan.Describe())
	}
}

func TestIndexAnding(t *testing.T) {
	cat := newFixture(t, 1000)
	cat.CreateIndex("IQ", "items", pattern.MustParse("/site/regions/*/item/quantity"), sqltype.Double)
	cat.CreateIndex("IP", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 and $i/price < 50 return $i`)
	plan, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() {
		t.Fatal("index plan expected")
	}
	if len(plan.Access) < 2 {
		t.Logf("plan chose single index (acceptable if ANDing not cheaper): %s", plan.Describe())
	}
	// With both predicates the fetched docs must be fewer than with the
	// price predicate alone.
	single, _ := o.Optimize(mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/price < 50 return $i`), nil)
	if !single.UsesIndexes() {
		t.Fatalf("price < 50 should use the index: %s", single.Describe())
	}
	if plan.FetchDocs > single.FetchDocs+1 {
		t.Errorf("ANDed fetch %f > single fetch %f", plan.FetchDocs, single.FetchDocs)
	}
}

func TestVirtualIndexesViaExtra(t *testing.T) {
	cat := newFixture(t, 300)
	o := New(cat)
	st, _ := cat.Stats("items")
	virt := catalog.VirtualDef("V1", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double, st)
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	plan, err := o.Optimize(q, []*catalog.IndexDef{virt})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UsesIndexes() || plan.Access[0].Index.Name != "V1" {
		t.Errorf("virtual index not used: %s", plan.Describe())
	}
}

func TestVirtualOnlyHidesRealIndexes(t *testing.T) {
	cat := newFixture(t, 300)
	cat.CreateIndex("IREAL", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	ev, err := o.EvaluateIndexes(q, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Plan.UsesIndexes() {
		t.Error("virtualOnly evaluation must not see real indexes")
	}
	ev2, _ := o.EvaluateIndexes(q, nil, false)
	if !ev2.Plan.UsesIndexes() {
		t.Error("non-virtualOnly evaluation should see real indexes")
	}
}

func TestEnumerateIndexes(t *testing.T) {
	cat := newFixture(t, 100)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/namerica/item
where $i/quantity > 5 and contains($i/name, "item")
return $i/name`)
	cands, err := o.EnumerateIndexes(q)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]bool{}
	for _, c := range cands {
		byKey[c.Key()] = true
	}
	for _, want := range []string{
		"/site/regions/namerica/item/quantity|dbl", // value predicate
		"/site/regions/namerica/item/name|str",     // contains predicate
		"/site/regions/namerica/item|str",          // structural binding leg
	} {
		if !byKey[want] {
			t.Errorf("missing candidate %q; got %v", want, byKey)
		}
	}
	// Output leg must not be a candidate with output marker — the name
	// pattern appears via contains, not via the return clause.
	for _, c := range cands {
		if c.Leg.Output {
			t.Errorf("output leg enumerated: %v", c)
		}
	}
}

func TestEnumerateIncludesAttributeAndDisjunct(t *testing.T) {
	cat := newFixture(t, 50)
	o := New(cat)
	q := mustQuery(t, `SELECT 1 FROM items WHERE XMLEXISTS('$d/site/regions/namerica/item[@id = "i1" or quantity = 2]' PASSING doc AS "d")`)
	cands, err := o.EnumerateIndexes(q)
	if err != nil {
		t.Fatal(err)
	}
	var attr, disj bool
	for _, c := range cands {
		if c.Pattern.Last().Kind == pattern.TestAttr {
			attr = true
		}
		if c.Leg.Disjunct {
			disj = true
		}
	}
	if !attr {
		t.Error("attribute candidate missing (needs //@* universal index)")
	}
	if !disj {
		t.Error("disjunct candidates should be enumerated")
	}
}

func TestEvaluateIndexesBenefit(t *testing.T) {
	cat := newFixture(t, 400)
	o := New(cat)
	st, _ := cat.Stats("items")
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/price = 7 return $i`)
	good := catalog.VirtualDef("VQ", "items", pattern.MustParse("/site/regions/*/item/price"), sqltype.Double, st)
	ev, err := o.EvaluateIndexes(q, []*catalog.IndexDef{good}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Benefit <= 0 {
		t.Errorf("benefit = %f, want > 0", ev.Benefit)
	}
	if len(ev.UsedIndexes) != 1 || ev.UsedIndexes[0] != "VQ" {
		t.Errorf("UsedIndexes = %v", ev.UsedIndexes)
	}
	// An irrelevant index yields zero benefit.
	bad := catalog.VirtualDef("VB", "items", pattern.MustParse("//nosuch"), sqltype.Double, st)
	ev2, _ := o.EvaluateIndexes(q, []*catalog.IndexDef{bad}, true)
	if ev2.Benefit != 0 || len(ev2.UsedIndexes) != 0 {
		t.Errorf("irrelevant index: benefit=%f used=%v", ev2.Benefit, ev2.UsedIndexes)
	}
}

func TestExplainRendering(t *testing.T) {
	cat := newFixture(t, 50)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 return $i`)
	s, err := o.ExplainEnumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "ENUMERATE INDEXES") || !strings.Contains(s, "quantity") {
		t.Errorf("enumerate explain:\n%s", s)
	}
	st, _ := cat.Stats("items")
	cfg := []*catalog.IndexDef{catalog.VirtualDef("V", "items", pattern.MustParse("//quantity"), sqltype.Double, st)}
	ev, err := o.EvaluateIndexes(q, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	s = RenderEvaluation(q.Text, cfg, ev.CostNoIndexes, ev.Cost, ev.Benefit, ev.Plan.Describe())
	for _, want := range []string{"EVALUATE INDEXES", "benefit", "cost without indexes"} {
		if !strings.Contains(s, want) {
			t.Errorf("evaluate explain missing %q:\n%s", want, s)
		}
	}
}

func TestUnknownCollection(t *testing.T) {
	cat := newFixture(t, 5)
	o := New(cat)
	q := mustQuery(t, `for $i in collection("nosuch")/a return $i`)
	if _, err := o.Optimize(q, nil); err == nil {
		t.Error("unknown collection should fail")
	}
	if _, err := o.EnumerateIndexes(q); err == nil {
		t.Error("enumerate on unknown collection should fail")
	}
}

func TestYaoDocs(t *testing.T) {
	if got := yaoDocs(0, 10); got != 0 {
		t.Errorf("yao(0,10) = %f", got)
	}
	if got := yaoDocs(100, 0); got != 0 {
		t.Errorf("yao(100,0) = %f", got)
	}
	got := yaoDocs(100, 1)
	if got < 0.99 || got > 1.01 {
		t.Errorf("yao(100,1) = %f, want ~1", got)
	}
	if got := yaoDocs(100, 10000); got > 100 {
		t.Errorf("yao overflow: %f", got)
	}
	// Monotone in k.
	prev := 0.0
	for k := 1.0; k < 500; k *= 2 {
		cur := yaoDocs(100, k)
		if cur < prev {
			t.Errorf("yao not monotone at k=%f", k)
		}
		prev = cur
	}
}

func TestCostScalesWithData(t *testing.T) {
	small := newFixture(t, 50)
	big := newFixture(t, 1000)
	q := mustQuery(t, `for $i in collection("items")/site/regions/*/item where $i/quantity = 3 return $i`)
	ps, _ := New(small).Optimize(q, nil)
	pb, _ := New(big).Optimize(q, nil)
	if pb.DocScanCost <= ps.DocScanCost {
		t.Errorf("doc scan cost should grow with data: %f vs %f", pb.DocScanCost, ps.DocScanCost)
	}
}
