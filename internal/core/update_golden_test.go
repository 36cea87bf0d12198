package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/workload"
)

var updateColdGolden = flag.Bool("update", false, "rewrite the cold-with-updates golden file")

// coldUpdateSecurities is the TPoX securities count of the cold-workload
// catalog (the experiment harness's Small scale).
const coldUpdateSecurities = 25

// coldUpdateCatalog builds the Small-scale XMark + TPoX catalog the
// cold-with-updates golden runs against.
func coldUpdateCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 250, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: coldUpdateSecurities, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return catalog.New(st)
}

// coldUpdateWorkload is a workload shaped like a served cold session:
// 20 XMark and 10 TPoX queries plus an XMark insert/delete pair weighing
// a fifth of the query weight.
func coldUpdateWorkload(seed int64) *workload.Workload {
	w := &workload.Workload{Name: fmt.Sprintf("cold-updates-%d", seed)}
	for _, src := range []*workload.Workload{
		datagen.XMarkWorkload(20, seed),
		datagen.TPoXWorkload(10, seed, coldUpdateSecurities),
	} {
		for _, e := range src.Queries {
			w.MustAddQuery(e.Weight, e.Query.Text)
		}
	}
	datagen.XMarkUpdates(w, w.TotalQueryWeight()/5, seed)
	return w
}

// fbits renders a float exactly.
func fbits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestColdUpdatesGolden pins, for six cold workloads with updates, the
// recommendation at a quarter of the overtrained size (DDL, exact update
// cost, net benefit, per-query rows) and every candidate's standalone
// maintenance cost. Regenerate only with -update, and only for a change
// meant to alter update costing or candidate sizing.
func TestColdUpdatesGolden(t *testing.T) {
	cat := coldUpdateCatalog(t)
	var sb strings.Builder
	for seed := int64(1); seed <= 6; seed++ {
		w := coldUpdateWorkload(seed)
		p, err := New(cat, DefaultOptions()).Prepare(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		budget := search.PagesOf(p.Basics()) / 4
		if budget <= 0 {
			budget = 1
		}
		rec, err := p.RecommendWith(context.Background(), SearchGreedyHeuristic, budget)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "== seed %d budget=%d pages=%d\n", seed, budget, rec.TotalPages)
		for _, ddl := range rec.DDL {
			fmt.Fprintln(&sb, ddl)
		}
		fmt.Fprintf(&sb, "qb=%s uc=%s net=%s\n", fbits(rec.QueryBenefit), fbits(rec.UpdateCost), fbits(rec.NetBenefit))
		for _, qa := range rec.PerQuery {
			fmt.Fprintf(&sb, "q %s w=%s c0=%s cr=%s co=%s used=%v\n", qa.ID, fbits(qa.Weight),
				fbits(qa.CostNoIndexes), fbits(qa.CostRecommended), fbits(qa.CostOvertrained), qa.IndexesUsed)
		}
		for _, c := range p.Space().Candidates {
			fmt.Fprintf(&sb, "uc %s %s\n", c.Key(), fbits(p.ev.updateCost([]*Candidate{c})))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "cold_updates.golden")
	if *updateColdGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("cold-with-updates output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cold-with-updates output differs from %s in length: %d lines vs %d", path, len(gl), len(wl))
	}
}
