package core

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/workload"
	"repro/internal/xindex"
)

// TestEstimatedEntriesMatchBuilt checks that the advisor sizes every
// candidate of the standard Small-scale workloads, the overtrained
// (basic) ones and their generalizations, at exactly the entries CREATE
// INDEX would build: the statistics and the physical index count entries
// by one rule.
func TestEstimatedEntriesMatchBuilt(t *testing.T) {
	cat := coldUpdateCatalog(t)
	for _, w := range []*workload.Workload{
		datagen.XMarkWorkload(20, 1),
		datagen.TPoXWorkload(18, 1, coldUpdateSecurities),
		datagen.XMarkPaperWorkload(),
	} {
		p, err := New(cat, DefaultOptions()).Prepare(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Space().Candidates) == 0 {
			t.Fatalf("%s: no candidates", w.Name)
		}
		for _, c := range p.Space().Candidates {
			st, err := cat.Stats(c.Collection)
			if err != nil {
				t.Fatal(err)
			}
			coll, err := cat.Collection(c.Collection)
			if err != nil {
				t.Fatal(err)
			}
			est := catalog.VirtualDef("est", c.Collection, c.Pattern, c.Type, st).EstEntries
			built := xindex.Build("built", c.Pattern, c.Type, coll).Entries()
			if est != int64(built) {
				t.Errorf("%s: %s estimated at %d entries, built with %d", w.Name, c.Key(), est, built)
			}
		}
	}
}
