package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/store"
	"repro/internal/workload"
)

// xmarkFixture builds a catalog over generated XMark data.
func xmarkFixture(t testing.TB, docs int) *catalog.Catalog {
	t.Helper()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: docs, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	return catalog.New(st)
}

func TestRecommendPaperExample(t *testing.T) {
	cat := xmarkFixture(t, 300)
	a := New(cat, DefaultOptions())
	w := datagen.XMarkPaperWorkload()
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	// The generalization phase must produce the paper's patterns.
	var sawQuantityLUB, sawItemStar bool
	for _, c := range rec.DAG.Nodes {
		switch c.Pattern.String() {
		case "/site/regions/*/item/quantity":
			sawQuantityLUB = true
		case "/site/regions/*/item/*":
			sawItemStar = true
		}
	}
	if !sawQuantityLUB {
		t.Error("missing /site/regions/*/item/quantity generalization")
	}
	if !sawItemStar {
		t.Error("missing /site/regions/*/item/* generalization")
	}
	if len(rec.Config) == 0 {
		t.Fatal("no indexes recommended")
	}
	if rec.NetBenefit <= 0 {
		t.Errorf("net benefit = %f", rec.NetBenefit)
	}
	if len(rec.DDL) != len(rec.Config) {
		t.Error("DDL count mismatch")
	}
	for _, ddl := range rec.DDL {
		if !strings.Contains(ddl, "GENERATE KEY USING XMLPATTERN") {
			t.Errorf("bad DDL: %s", ddl)
		}
	}
}

func TestRecommendImprovesPerQueryCosts(t *testing.T) {
	cat := xmarkFixture(t, 300)
	a := New(cat, DefaultOptions())
	w := datagen.XMarkWorkload(12, 3)
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.PerQuery) != 12 {
		t.Fatalf("PerQuery = %d", len(rec.PerQuery))
	}
	improved := 0
	for _, qa := range rec.PerQuery {
		if qa.CostRecommended > qa.CostNoIndexes+1e-9 {
			t.Errorf("%s: recommended cost %f > no-index cost %f", qa.ID, qa.CostRecommended, qa.CostNoIndexes)
		}
		// Overtrained is the per-workload maximum benefit: recommended
		// can never beat it.
		if qa.CostOvertrained > qa.CostRecommended+1e-9 {
			t.Errorf("%s: overtrained cost %f > recommended %f", qa.ID, qa.CostOvertrained, qa.CostRecommended)
		}
		if qa.CostRecommended < qa.CostNoIndexes {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no query improved")
	}
}

func TestBudgetIsRespected(t *testing.T) {
	cat := xmarkFixture(t, 300)
	w := datagen.XMarkWorkload(10, 4)

	unlimited := New(cat, DefaultOptions())
	recU, err := unlimited.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if recU.TotalPages == 0 {
		t.Skip("nothing recommended; cannot test budget")
	}
	budget := recU.TotalPages / 2
	for _, kind := range []SearchKind{SearchGreedyHeuristic, SearchTopDown, SearchGreedyBasic} {
		opts := DefaultOptions()
		opts.DiskBudgetPages = budget
		opts.Search = kind
		a := New(cat, opts)
		rec, err := a.Recommend(w)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rec.TotalPages > budget {
			t.Errorf("%v: %d pages exceeds budget %d", kind, rec.TotalPages, budget)
		}
		if rec.NetBenefit < 0 {
			t.Errorf("%v: negative net benefit %f", kind, rec.NetBenefit)
		}
	}
}

func TestHeuristicBeatsPlainGreedyUnderTightBudget(t *testing.T) {
	cat := xmarkFixture(t, 400)
	w := datagen.XMarkWorkload(16, 7)

	base := New(cat, DefaultOptions())
	recBase, err := base.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if recBase.TotalPages < 4 {
		t.Skip("config too small to constrain")
	}
	budget := recBase.TotalPages / 3

	run := func(kind SearchKind) *Recommendation {
		opts := DefaultOptions()
		opts.DiskBudgetPages = budget
		opts.Search = kind
		rec, err := New(cat, opts).Recommend(w)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	heur := run(SearchGreedyHeuristic)
	plain := run(SearchGreedyBasic)
	// The paper's claim: redundancy-aware greedy never loses to plain
	// greedy (which wastes budget on overlapping indexes).
	if heur.NetBenefit+1e-6 < plain.NetBenefit {
		t.Errorf("heuristic %.1f < plain %.1f under budget %d", heur.NetBenefit, plain.NetBenefit, budget)
	}
}

func TestEveryRecommendedIndexIsUsed(t *testing.T) {
	cat := xmarkFixture(t, 300)
	opts := DefaultOptions()
	a := New(cat, opts)
	w := datagen.XMarkWorkload(10, 5)
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, qa := range rec.PerQuery {
		for _, n := range qa.IndexesUsed {
			used[n] = true
		}
	}
	for i := range rec.Config {
		name := rec.DDL[i]
		_ = name
	}
	// §2.3: "every index recommended ... will be used by at least one
	// query in the workload".
	if len(used) != len(rec.Config) {
		t.Errorf("recommended %d indexes but only %d used: %v", len(rec.Config), len(used), used)
	}
}

func TestUpdateCostShrinksRecommendation(t *testing.T) {
	cat := xmarkFixture(t, 300)
	w := datagen.XMarkWorkload(10, 6)

	recNoUpd, err := New(cat, DefaultOptions()).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy updates: maintenance should eat into net benefit.
	wUpd := datagen.XMarkWorkload(10, 6)
	datagen.XMarkUpdates(wUpd, 500, 6)
	recUpd, err := New(cat, DefaultOptions()).Recommend(wUpd)
	if err != nil {
		t.Fatal(err)
	}
	if recUpd.UpdateCost <= 0 {
		t.Error("update cost not charged")
	}
	if recUpd.NetBenefit > recNoUpd.NetBenefit {
		t.Errorf("net benefit with updates %f > without %f", recUpd.NetBenefit, recNoUpd.NetBenefit)
	}
	if recUpd.TotalPages > recNoUpd.TotalPages {
		t.Errorf("update-heavy workload got a bigger config (%d > %d pages)", recUpd.TotalPages, recNoUpd.TotalPages)
	}
}

func TestGeneralizationHelpsUnseenQueries(t *testing.T) {
	cat := xmarkFixture(t, 400)
	full := datagen.XMarkWorkload(30, 8)
	train, test := full.Split(0.6, 8)
	if len(train.Queries) == 0 || len(test.Queries) == 0 {
		t.Skip("degenerate split")
	}

	run := func(generalize bool) float64 {
		opts := DefaultOptions()
		opts.Search = SearchTopDown
		if !generalize {
			opts.Rules = "none"
		}
		a := New(cat, opts)
		rec, err := a.Recommend(train)
		if err != nil {
			t.Fatal(err)
		}
		noIdx, withIdx, err := a.EvaluateDefs(context.Background(), test, defsOfCandidates(rec.Config))
		if err != nil {
			t.Fatal(err)
		}
		return noIdx - withIdx
	}
	genBenefit := run(true)
	noGenBenefit := run(false)
	if genBenefit < noGenBenefit-1e-6 {
		t.Errorf("generalized config benefit on unseen queries %.1f < ungeneralized %.1f", genBenefit, noGenBenefit)
	}
	if genBenefit <= 0 {
		t.Error("generalized config gives no benefit to unseen queries")
	}
}

func TestMaterializeAndExecute(t *testing.T) {
	cat := xmarkFixture(t, 200)
	a := New(cat, DefaultOptions())
	w := datagen.XMarkWorkload(8, 9)
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rec.Config {
		if _, err := cat.CreateIndex(rec.Names[i], c.Collection, c.Pattern, c.Type); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range rec.Names {
		def := cat.Index(n)
		if def == nil || def.Phys == nil {
			t.Fatalf("index %s not physically built", n)
		}
	}
	// Queries must still produce identical results with the physical
	// indexes in place.
	ex := executor.New(cat)
	for _, e := range w.Queries {
		scan, err := ex.Run(e.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := a.Optimizer().Optimize(e.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ex.Run(e.Query, plan)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Rows != idx.Rows {
			t.Errorf("%s: scan=%d indexed=%d", e.Query.ID, scan.Rows, idx.Rows)
		}
	}
}

func TestSyntacticEnumerationIsWorse(t *testing.T) {
	cat := xmarkFixture(t, 300)
	w := datagen.XMarkWorkload(12, 10)

	optsOpt := DefaultOptions()
	recOpt, err := New(cat, optsOpt).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	optsSyn := DefaultOptions()
	optsSyn.Source = candidate.SyntacticSource{}
	recSyn, err := New(cat, optsSyn).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	// The syntactic baseline types everything VARCHAR, so numeric
	// comparisons cannot be served: its benefit must not exceed the
	// optimizer-coupled benefit.
	if recSyn.NetBenefit > recOpt.NetBenefit+1e-6 {
		t.Errorf("syntactic %.1f > optimizer-coupled %.1f", recSyn.NetBenefit, recOpt.NetBenefit)
	}
}

func TestAdvisorRefreshesCostsAfterDataChange(t *testing.T) {
	cat := xmarkFixture(t, 100)
	a := New(cat, DefaultOptions())
	w := datagen.XMarkPaperWorkload()
	rec1, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the collection under the same long-lived advisor: the
	// what-if cache must be flushed, not serve the 100-doc costs.
	col := cat.Store().Get("auction")
	for i := 0; i < 50; i++ {
		if _, err := col.InsertXML("<site><regions><namerica><item><price>10</price><quantity>1</quantity><name>x</name></item></namerica></regions></site>"); err != nil {
			t.Fatal(err)
		}
	}
	rec2, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.PerQuery[0].CostNoIndexes <= rec1.PerQuery[0].CostNoIndexes {
		t.Errorf("stale costs after data change: %f -> %f",
			rec1.PerQuery[0].CostNoIndexes, rec2.PerQuery[0].CostNoIndexes)
	}
}

func TestCustomSourceOverridesEnumeration(t *testing.T) {
	cat := xmarkFixture(t, 150)
	opts := DefaultOptions()
	opts.Source = candidate.SyntacticSource{}
	a := New(cat, opts)
	rec, err := a.Recommend(datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen.Source != "syntactic" {
		t.Errorf("pipeline used source %q, want the injected syntactic source", rec.Gen.Source)
	}
}

func TestRulesSpecSelectsRules(t *testing.T) {
	cat := xmarkFixture(t, 150)
	opts := DefaultOptions()
	opts.Rules = "lub"
	rec, err := New(cat, opts).Recommend(datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Gen.Rules) != 1 || rec.Gen.Rules[0].Name != "lub" {
		t.Errorf("rules = %+v, want lub only", rec.Gen.Rules)
	}
	opts.Rules = "bogus"
	if _, err := New(cat, opts).Recommend(datagen.XMarkPaperWorkload()); err == nil {
		t.Error("bogus rule spec should fail")
	}
}

func TestEmptyWorkloadFails(t *testing.T) {
	cat := xmarkFixture(t, 10)
	a := New(cat, DefaultOptions())
	if _, err := a.Recommend(&workload.Workload{}); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestReportRendering(t *testing.T) {
	cat := xmarkFixture(t, 150)
	a := New(cat, DefaultOptions())
	rec, err := a.Recommend(datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	dag := rec.DAG.Render()
	if !strings.Contains(dag, "roots") {
		t.Errorf("DAG render:\n%s", dag)
	}
}

// TestAnalyzeConfigWhatIf removes one index from the recommendation
// and re-prices the workload on the advisor's what-if engine: no
// query's cost may drop, and the full configuration must price every
// query as the recommendation's own table does.
func TestAnalyzeConfigWhatIf(t *testing.T) {
	cat := xmarkFixture(t, 200)
	a := New(cat, DefaultOptions())
	w := datagen.XMarkWorkload(8, 20)
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Config) < 2 {
		t.Skip("config too small for removal analysis")
	}
	defs := defsOfCandidates(rec.Config)
	ctx := context.Background()
	full, err := a.CostEngine().EvaluateConfig(ctx, w.QueryList(), defs)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := a.CostEngine().EvaluateConfig(ctx, w.QueryList(), defs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Queries) != len(w.Queries) || len(reduced.Queries) != len(w.Queries) {
		t.Fatal("analysis row count wrong")
	}
	var fullTot, redTot float64
	for i, e := range w.Queries {
		fullTot += e.Weight * full.Queries[i].Cost
		redTot += e.Weight * reduced.Queries[i].Cost
		// Removing an index can only increase (or keep) each cost.
		if reduced.Queries[i].Cost+1e-9 < full.Queries[i].Cost {
			t.Errorf("%s: cost dropped after removing an index", e.Query.ID)
		}
	}
	if redTot < fullTot {
		t.Error("total cost dropped after removing an index")
	}
	// The full analysis must agree with the recommendation's own table.
	for i, qa := range rec.PerQuery {
		if d := qa.CostRecommended - full.Queries[i].Cost; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: what-if %f != recommendation %f", qa.ID, full.Queries[i].Cost, qa.CostRecommended)
		}
	}
}
