package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/search"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// xmarkStoreFixture is xmarkFixture keeping the store, so tests can
// mutate collections to invalidate statistics versions.
func xmarkStoreFixture(t testing.TB, docs int) (*store.Store, *catalog.Catalog) {
	t.Helper()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: docs, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	return st, catalog.New(st)
}

// renderRec projects a Recommendation onto everything a restored
// session must reproduce byte-for-byte: configuration, DDL, exact
// costs, per-query analysis, the candidate space, and the original
// pipeline stats. Volatile run-local fields (timings, cache counter
// windows, traces) are deliberately absent.
func renderRec(t *testing.T, rec *Recommendation) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "names=%v\npages=%d\n", rec.Names, rec.TotalPages)
	for _, ddl := range rec.DDL {
		fmt.Fprintln(&sb, ddl)
	}
	fmt.Fprintf(&sb, "qb=%v uc=%v net=%v\n", rec.QueryBenefit, rec.UpdateCost, rec.NetBenefit)
	for _, qa := range rec.PerQuery {
		fmt.Fprintf(&sb, "q %s w=%v c0=%v cr=%v co=%v used=%v\n",
			qa.ID, qa.Weight, qa.CostNoIndexes, qa.CostRecommended, qa.CostOvertrained, qa.IndexesUsed)
	}
	for _, c := range rec.Config {
		fmt.Fprintf(&sb, "cfg %d %s\n", c.ID, c.Key())
	}
	for _, b := range rec.Basics {
		fmt.Fprintf(&sb, "basic %d %s\n", b.ID, b.Key())
	}
	sb.WriteString(rec.DAG.Render())
	gen, err := json.Marshal(rec.Gen)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(gen)
	fmt.Fprintf(&sb, "\nrelevance=%+v\n", rec.Relevance)
	return sb.String()
}

func TestPreparedSaveLoadParity(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 300)
	ctx := context.Background()
	w := datagen.XMarkPaperWorkload()
	strategies := []SearchKind{SearchGreedyHeuristic, SearchTopDown, SearchGreedyBasic}

	a := New(cat, DefaultOptions())
	p1, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	want := map[SearchKind]string{}
	for _, k := range strategies {
		rec, err := p1.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want[k] = renderRec(t, rec)
	}
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh advisor (cold engine, same catalog and options) restores
	// and must recommend byte-identically with zero CostService calls.
	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evalsAfterLoad := b.CostEngine().Stats().Evaluations
	if evalsAfterLoad != 0 {
		t.Errorf("restore issued %d CostService calls, want 0 (base costs and the benefit matrix rebuilt from imported atoms)", evalsAfterLoad)
	}
	if !reflect.DeepEqual(p1.Space().Benefits, p2.Space().Benefits) {
		t.Error("restored benefit matrix differs from original")
	}
	for _, k := range strategies {
		rec, err := p2.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("restored %s: %v", k, err)
		}
		if got := renderRec(t, rec); got != want[k] {
			t.Errorf("%s: restored recommendation differs from original:\n--- original ---\n%s\n--- restored ---\n%s", k, want[k], got)
		}
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restored recommends issued %d CostService calls, want 0 (warm cache)", evals)
	}
}

// TestRestoreIgnoresPlanText restores a snapshot whose atoms carry plan
// text, as snapshots written before the cost service stopped rendering
// plans do, and checks that the restored session recommends exactly as
// the fresh one did, with no cost calls, and saves its atoms with the
// plan text empty.
func TestRestoreIgnoresPlanText(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 200)
	ctx := context.Background()
	strategies := []SearchKind{SearchGreedyHeuristic, SearchTopDown, SearchGreedyBasic}

	a := New(cat, DefaultOptions())
	p1, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	want := map[SearchKind]string{}
	for _, k := range strategies {
		rec, err := p1.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want[k] = renderRec(t, rec)
	}
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Atoms) == 0 {
		t.Fatal("snapshot holds no atoms")
	}
	for i := range snap.Atoms {
		at := &snap.Atoms[i]
		if at.PlanDesc != "" {
			t.Fatalf("atom %q saved with plan text %q", at.Key, at.PlanDesc)
		}
		at.PlanDesc = fmt.Sprintf("DOCSCAN cost=%.2f", at.CostNoIndexes)
		if len(at.UsedIndexes) > 0 {
			at.PlanDesc = fmt.Sprintf("IXAND(%d) cost=%.2f docscan=%.2f\n  IXSCAN %s",
				len(at.UsedIndexes), at.Cost, at.CostNoIndexes, strings.Join(at.UsedIndexes, ","))
		}
	}
	var old bytes.Buffer
	if err := snapshot.Encode(&old, snap); err != nil {
		t.Fatal(err)
	}

	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range strategies {
		rec, err := p2.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("restored %s: %v", k, err)
		}
		if got := renderRec(t, rec); got != want[k] {
			t.Errorf("%s: restored recommendation differs from the fresh session's:\n--- fresh ---\n%s\n--- restored ---\n%s", k, want[k], got)
		}
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restore and recommends issued %d CostService calls, want 0", evals)
	}
	var again bytes.Buffer
	if err := p2.Save(&again); err != nil {
		t.Fatal(err)
	}
	resaved, err := snapshot.Decode(bytes.NewReader(again.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range resaved.Atoms {
		if at.PlanDesc != "" {
			t.Fatalf("restored session saved atom %q with plan text %q", at.Key, at.PlanDesc)
		}
	}
}

// TestSaveNeverWritesBenefitsSection pins that a snapshot carries no
// benefit matrix, not even after every registered strategy has ranked
// by it: the atoms hold every standalone evaluation, and restore
// rebuilds the matrix from them.
func TestSaveNeverWritesBenefitsSection(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range search.Names() {
		if _, err := p.RecommendWith(ctx, SearchKind(name), 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.BenefitRows != 0 {
		t.Errorf("snapshot carries a benefit section of %d rows", info.BenefitRows)
	}
	if info.Atoms == 0 || info.Candidates == 0 {
		t.Errorf("unexpectedly empty snapshot: %+v", info)
	}
	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Space().Benefits, p2.Space().Benefits) {
		t.Error("restored benefit matrix differs from the saver's")
	}
}

// TestRestoreIgnoresBenefitsSection restores a snapshot carrying a
// Benefits section, as snapshots of earlier builds do, with every cell
// doubled, maintenance costs included: the restored session must
// rebuild the saver's matrix from the atoms, recommend byte-identically
// and call the cost service not once.
func TestRestoreIgnoresBenefitsSection(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 200)
	ctx := context.Background()
	strategies := []SearchKind{SearchGreedyHeuristic, SearchTopDown, SearchGreedyBasic, "lp"}
	w := datagen.XMarkPaperWorkload()
	datagen.XMarkUpdates(w, 2, 3)

	a := New(cat, DefaultOptions())
	p1, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	want := map[SearchKind]string{}
	for _, k := range strategies {
		rec, err := p1.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want[k] = renderRec(t, rec)
	}
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m := p1.Space().Benefits
	doubled := &snapshot.BenefitsData{NumQueries: m.NumQueries}
	for i, row := range m.Rows {
		cells := []snapshot.BenefitCell{}
		for _, e := range row {
			cells = append(cells, snapshot.BenefitCell{Query: e.Query, Benefit: 2 * e.Benefit})
		}
		doubled.Rows = append(doubled.Rows, cells)
		doubled.Update = append(doubled.Update, 2*m.UpdateCost(i))
	}
	snap.Benefits = doubled
	var doctored bytes.Buffer
	if err := snapshot.Encode(&doctored, snap); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.Inspect(bytes.NewReader(doctored.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.BenefitRows != len(m.Rows) {
		t.Fatalf("doctored snapshot carries %d benefit rows, want %d", info.BenefitRows, len(m.Rows))
	}

	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(doctored.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, p2.Space().Benefits) {
		t.Error("restored benefit matrix differs from the saver's")
	}
	for _, k := range strategies {
		rec, err := p2.RecommendWith(ctx, k, 0)
		if err != nil {
			t.Fatalf("restored %s: %v", k, err)
		}
		if got := renderRec(t, rec); got != want[k] {
			t.Errorf("%s: restored recommendation differs from the saver's:\n--- saver ---\n%s\n--- restored ---\n%s", k, want[k], got)
		}
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restore and recommends issued %d CostService calls, want 0", evals)
	}
}

// TestDefaultOptionsFingerprint pins the fingerprint string snapshots
// carry for the default options. Changing it turns every snapshot
// written by an earlier build into an options mismatch, so restores
// silently fall back to a cold prepare.
func TestDefaultOptionsFingerprint(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 10)
	const want = "v1|src=optimizer|rules=default|minshared=1|maxcand=400|noproj=false"
	if got := New(cat, DefaultOptions()).optionsFingerprint(); got != want {
		t.Errorf("default options fingerprint = %q, want %q", got, want)
	}
}

// TestRetiredSpellingsKeepFingerprints pins the fingerprint of every
// rule spec and source that replaced an older option spelling to the
// literal string the older spelling produced, so snapshots written
// under it still restore warm.
func TestRetiredSpellingsKeepFingerprints(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 10)
	cases := []struct {
		name  string
		set   func(*Options)
		older string // the retired spelling that wrote want
		want  string
	}{
		{"default rules", func(o *Options) { o.Rules = "" }, "Generalize=true",
			"v1|src=optimizer|rules=default|minshared=1|maxcand=400|noproj=false"},
		{"no rules", func(o *Options) { o.Rules = "none" }, "Generalize=false",
			"v1|src=optimizer|rules=none|minshared=1|maxcand=400|noproj=false"},
		{"explicit spec", func(o *Options) { o.Rules = "lub,leaf,axis" }, `Rules="lub,leaf,axis"`,
			"v1|src=optimizer|rules=lub,leaf,axis|minshared=1|maxcand=400|noproj=false"},
		{"all rules", func(o *Options) { o.Rules = "all" }, `Rules="all"`,
			"v1|src=optimizer|rules=all|minshared=1|maxcand=400|noproj=false"},
		{"syntactic source", func(o *Options) { o.Source = candidate.SyntacticSource{} }, "Enumeration=EnumSyntactic",
			"v1|src=syntactic|rules=default|minshared=1|maxcand=400|noproj=false"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.set(&opts)
			if got := New(cat, opts).optionsFingerprint(); got != tc.want {
				t.Errorf("fingerprint = %q, want %q (as written under %s)", got, tc.want, tc.older)
			}
		})
	}
}

func TestLoadPreparedOptionsMismatch(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Rules = "none"
	b := New(cat, opts)
	_, err = b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("LoadPrepared = %v, want ErrSnapshotMismatch", err)
	}
	var me *SnapshotMismatchError
	if !errors.As(err, &me) || me.Field != "options" {
		t.Fatalf("LoadPrepared = %v, want options SnapshotMismatchError", err)
	}
}

func TestLoadPreparedStaleCatalog(t *testing.T) {
	st, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The collection changes after the save: cached costs are stale.
	if _, err := st.Get("auction").InsertXML("<site><regions/></site>"); err != nil {
		t.Fatal(err)
	}
	b := New(cat, DefaultOptions())
	_, err = b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("LoadPrepared = %v, want ErrSnapshotMismatch", err)
	}
}

func TestLoadPreparedRejectsGarbage(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	a := New(cat, DefaultOptions())
	_, err := a.LoadPrepared(context.Background(), strings.NewReader("not a snapshot at all"))
	if !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("LoadPrepared = %v, want snapshot.ErrNotSnapshot", err)
	}
}
