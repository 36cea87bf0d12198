package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/sqltype"
	"repro/internal/workload"
	"repro/internal/xindex"
	"repro/internal/xmldoc"
)

// referenceUpdateCost recomputes a configuration's maintenance cost from
// first principles — uncached pattern.Overlaps, per-call Compile — as
// the oracle for the kernel-backed updateCost path (OverlapsCached,
// interned matchers, the per-session maintenance table).
func referenceUpdateCost(t *testing.T, a *Advisor, w *workload.Workload, cfg []*Candidate) float64 {
	t.Helper()
	var total float64
	for _, u := range w.Updates {
		for _, c := range cfg {
			if c.Collection != u.Collection {
				continue
			}
			switch u.Kind {
			case workload.UpdateInsert:
				d, err := xmldoc.ParseString(u.DocXML)
				if err != nil {
					t.Fatal(err)
				}
				total += u.Weight * float64(oracleDocEntries(d, c)) * a.maintPerEntry
			case workload.UpdateDelete:
				st, err := a.cat.Stats(u.Collection)
				if err != nil || st.Docs == 0 {
					continue
				}
				perDoc := float64(c.Def.EstEntries) / float64(st.Docs)
				if u.Path != nil && !pattern.Overlaps(docScope(u.Path.LinearPattern()), docScope(c.Pattern)) {
					continue
				}
				total += u.Weight * perDoc * a.maintPerEntry
			}
		}
	}
	return total
}

// oracleDocEntries counts the entries document d contributes to
// candidate c's index node by node: render each node's root path, match
// it with a freshly compiled matcher, and cast the node's text.
func oracleDocEntries(d *xmldoc.Document, c *Candidate) int {
	m := pattern.Compile(c.Pattern)
	entries := 0
	d.Walk(func(nd *xmldoc.Node) bool {
		var raw string
		switch nd.Kind {
		case xmldoc.KindElement:
			raw = nd.Text()
		default:
			raw = nd.Value
		}
		if m.MatchPath(nd.RootPath()) {
			if _, ok := sqltype.Cast(c.Type, raw); ok {
				entries++
			}
		}
		return true
	})
	return entries
}

// TestInsertEntriesParity checks, for every candidate of the xmark and
// tpox spaces (every rule's generalizations and the overtrained basics)
// plus outsider definitions no workload produces, that the entry count
// the maintenance table charges for each insert's sample document
// (docEntriesFor over its xindex.DocNodes) equals the per-node oracle
// and the entries xindex.InsertDoc adds to an empty physical index. The
// inserts go into auction and order, so attribute and text() paths and
// double and date casts are all exercised.
func TestInsertEntriesParity(t *testing.T) {
	cat := coldUpdateCatalog(t)
	xm := datagen.XMarkWorkload(20, 1)
	datagen.XMarkUpdates(xm, 10, 1)
	datagen.XMarkUpdates(xm, 10, 2)
	tp := datagen.TPoXWorkload(18, 1, coldUpdateSecurities)
	datagen.TPoXUpdates(tp, 10, 1, coldUpdateSecurities)
	datagen.TPoXUpdates(tp, 10, 2, coldUpdateSecurities)
	outsiders := []struct {
		pat string
		typ sqltype.Type
	}{
		{"//text()", sqltype.Varchar},
		{"//@*", sqltype.Double},
		{"//*", sqltype.Date},
		{"/site//item/*", sqltype.Double},
		{"/FIXML/Order/@*", sqltype.Varchar},
	}
	// covered counts entries by the feature that produced them, so the
	// test fails if the inputs stop reaching attributes, text() legs or
	// the double and date casts.
	covered := map[string]int{}
	pairs := 0
	for _, w := range []*workload.Workload{xm, tp} {
		for _, rules := range []string{"", "all"} {
			opts := DefaultOptions()
			opts.Rules = rules
			a := New(cat, opts)
			ctx := context.Background()
			p, err := a.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			// The space holds the basics (the overtrained configuration)
			// and every generalization.
			cands := append([]*Candidate(nil), p.Space().Candidates...)
			for i, o := range outsiders {
				cands = append(cands, &Candidate{ID: 1_000_000 + i, Pattern: pattern.MustParse(o.pat), Type: o.typ})
			}
			for ui, u := range w.Updates {
				if u.Kind != workload.UpdateInsert {
					continue
				}
				d, err := xmldoc.ParseString(u.DocXML)
				if err != nil {
					t.Fatal(err)
				}
				nodes := xindex.DocNodes(u.Doc)
				for _, c := range cands {
					got := docEntriesFor(nodes, c)
					want := oracleDocEntries(d, c)
					phys := xindex.New("PARITY", c.Pattern, c.Type).InsertDoc(d)
					if got != want || got != phys {
						t.Fatalf("%s rules=%q insert %d, %s %s: evaluator %d entries, per-node oracle %d, physical index %d",
							w.Name, rules, ui, c.Pattern, c.Type, got, want, phys)
					}
					pairs++
					last := c.Pattern.Steps[len(c.Pattern.Steps)-1]
					switch {
					case last.Kind == pattern.TestAttr:
						covered["attribute"] += got
					case last.Kind == pattern.TestText:
						covered["text()"] += got
					}
					switch c.Type {
					case sqltype.Double:
						covered["double"] += got
					case sqltype.Date:
						covered["date"] += got
					}
				}
			}
		}
	}
	for _, f := range []string{"attribute", "text()", "double", "date"} {
		if covered[f] == 0 {
			t.Errorf("no (insert, candidate) pair counted a %s entry; coverage %v", f, covered)
		}
	}
	t.Logf("%d (insert, candidate) pairs agree; entries by feature %v", pairs, covered)
}

// TestUpdateBenefitUnchangedByKernelCache checks the kernel-cached
// update-cost path (OverlapsCached through the containment kernel)
// produces bit for bit the same maintenance charges as the uncached
// reference, on a workload with both inserts and path-scoped deletes.
func TestUpdateBenefitUnchangedByKernelCache(t *testing.T) {
	cat := xmarkFixture(t, 200)
	w := datagen.XMarkWorkload(8, 3)
	datagen.XMarkUpdates(w, 300, 3)
	// A delete whose path shares no document root with any candidate
	// exercises the non-overlapping branch too.
	if err := w.AddDelete(50, "auction", "/other_root/thing"); err != nil {
		t.Fatal(err)
	}

	a := New(cat, DefaultOptions())
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.UpdateCost <= 0 {
		t.Fatal("workload with updates charged no maintenance cost")
	}
	want := referenceUpdateCost(t, a, w, rec.Config)
	if rec.UpdateCost != want {
		t.Fatalf("update cost through kernel cache = %v, reference = %v", rec.UpdateCost, want)
	}

	// A second advisor over the now-warm process-wide kernel must charge
	// identical costs (cached Overlaps results replay correctly).
	rec2, err := New(cat, DefaultOptions()).Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.UpdateCost != rec.UpdateCost {
		t.Fatalf("update cost changed on warm kernel: %v vs %v", rec2.UpdateCost, rec.UpdateCost)
	}
}

// BenchmarkUpdateCost builds the evaluator of a prepared xmark space
// whose workload inserts a document, once per iteration: the base
// evaluation (a cache hit) plus the maintenance table, which parses the
// document's node paths once and prices every candidate of the space.
func BenchmarkUpdateCost(b *testing.B) {
	cat := xmarkFixture(b, 250)
	w := datagen.XMarkWorkload(20, 1)
	datagen.XMarkUpdates(w, w.TotalQueryWeight()/5, 1)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, w)
	if err != nil {
		b.Fatal(err)
	}
	cands := p.Space().Candidates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.newEvaluator(ctx, w, cands); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates")
}

// TestConcurrentMaintenanceMatchesSerial runs, per strategy, six
// recommends at six budgets concurrently on one session whose workload
// inserts and deletes, then the same requests one by one on it: every
// concurrent response must carry the serial run's configuration and the
// same update cost and net benefit bits. Under -race this pins that the
// maintenance table, written once at Prepare, is read without a lock.
func TestConcurrentMaintenanceMatchesSerial(t *testing.T) {
	cat := xmarkFixture(t, 250)
	w := datagen.XMarkWorkload(20, 1)
	datagen.XMarkUpdates(w, w.TotalQueryWeight()/5, 1)
	ctx := context.Background()
	p, err := New(cat, DefaultOptions()).Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		config          []string
		updateCost, net uint64
	}
	outcomeOf := func(rec *Recommendation) outcome {
		o := outcome{updateCost: math.Float64bits(rec.UpdateCost), net: math.Float64bits(rec.NetBenefit)}
		for _, c := range rec.Config {
			o.config = append(o.config, c.Key())
		}
		return o
	}
	charged := false
	for _, name := range search.Names() {
		kind := SearchKind(name)
		t.Run(name, func(t *testing.T) {
			recs := make([]*Recommendation, len(accountingBudgets))
			errs := make([]error, len(accountingBudgets))
			var wg sync.WaitGroup
			for i, b := range accountingBudgets {
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs[i], errs[i] = p.RecommendWith(ctx, kind, b)
				}()
			}
			wg.Wait()
			for i, b := range accountingBudgets {
				if errs[i] != nil {
					t.Fatalf("budget %d: %v", b, errs[i])
				}
				serial, err := p.RecommendWith(ctx, kind, b)
				if err != nil {
					t.Fatal(err)
				}
				got, want := outcomeOf(recs[i]), outcomeOf(serial)
				if !slices.Equal(got.config, want.config) || got.updateCost != want.updateCost || got.net != want.net {
					t.Errorf("budget %d: concurrent %v uc=%v net=%v, serial %v uc=%v net=%v", b,
						got.config, recs[i].UpdateCost, recs[i].NetBenefit, want.config, serial.UpdateCost, serial.NetBenefit)
				}
				charged = charged || serial.UpdateCost > 0
			}
		})
	}
	if !charged {
		t.Fatal("no recommendation paid maintenance: the updates exercised nothing")
	}
}
