package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/workload"
)

func recommendWith(t *testing.T, opts Options, w *workload.Workload) *Recommendation {
	t.Helper()
	cat := xmarkFixture(t, 150)
	a := New(cat, opts)
	rec, err := a.Recommend(w)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDAGEdgesAreContainments(t *testing.T) {
	rec := recommendWith(t, DefaultOptions(), datagen.XMarkWorkload(10, 2))
	for _, c := range rec.DAG.Nodes {
		for _, ch := range c.Children {
			if !pattern.Contains(c.Pattern, ch.Pattern) {
				t.Errorf("edge %s -> %s is not a containment", c.Pattern, ch.Pattern)
			}
			if pattern.Contains(ch.Pattern, c.Pattern) {
				t.Errorf("edge %s -> %s is not proper", c.Pattern, ch.Pattern)
			}
			if c.Type != ch.Type || c.Collection != ch.Collection {
				t.Errorf("edge %s -> %s crosses strata", c, ch)
			}
		}
	}
}

func TestDAGTransitiveReduction(t *testing.T) {
	rec := recommendWith(t, DefaultOptions(), datagen.XMarkPaperWorkload())
	// No edge may have a two-hop witness.
	for _, p := range rec.DAG.Nodes {
		direct := map[int]bool{}
		for _, ch := range p.Children {
			direct[ch.ID] = true
		}
		for _, mid := range p.Children {
			for _, gc := range mid.Children {
				if direct[gc.ID] {
					t.Errorf("transitive edge kept: %s -> %s -> %s", p.Pattern, mid.Pattern, gc.Pattern)
				}
			}
		}
	}
}

func TestDAGRootsHaveNoParents(t *testing.T) {
	rec := recommendWith(t, DefaultOptions(), datagen.XMarkWorkload(8, 3))
	rootSet := map[int]bool{}
	for _, r := range rec.DAG.Roots {
		rootSet[r.ID] = true
		if len(r.Parents) != 0 {
			t.Errorf("root %s has parents", r)
		}
	}
	for _, n := range rec.DAG.Nodes {
		if len(n.Parents) == 0 && !rootSet[n.ID] {
			t.Errorf("parentless node %s missing from roots", n)
		}
	}
}

func TestCoversBitmapMatchesContainment(t *testing.T) {
	rec := recommendWith(t, DefaultOptions(), datagen.XMarkPaperWorkload())
	// Rebuild the basic index ordering used by generalize().
	var basics []*Candidate
	for _, c := range rec.DAG.Nodes {
		if c.Basic {
			basics = append(basics, c)
		}
	}
	for _, c := range rec.DAG.Nodes {
		for bi, b := range basics {
			want := b.Collection == c.Collection && b.Type == c.Type &&
				pattern.Contains(c.Pattern, b.Pattern)
			if got := c.Covers().Get(bi); got != want {
				t.Errorf("covers(%s, %s) = %v, want %v", c.Pattern, b.Pattern, got, want)
			}
		}
	}
}

func TestIncludeUniversalAddsRoots(t *testing.T) {
	opts := DefaultOptions()
	opts.Rules = "lub,leaf,universal"
	rec := recommendWith(t, opts, datagen.XMarkPaperWorkload())
	var sawUniversal bool
	for _, r := range rec.DAG.Roots {
		if r.Pattern.Universal() {
			sawUniversal = true
		}
	}
	if !sawUniversal {
		t.Error("the universal rule did not add //* roots")
	}
	// //* must contain every same-type element candidate, so no other
	// element-pattern node of that type may be a root.
	for _, r := range rec.DAG.Roots {
		if r.Pattern.Universal() {
			continue
		}
		if r.Pattern.Last().Kind == pattern.TestElem {
			for _, u := range rec.DAG.Roots {
				if u.Pattern.Universal() && u.Type == r.Type && u.Collection == r.Collection &&
					u.Pattern.Last().Kind == pattern.TestElem {
					t.Errorf("node %s should hang below //*", r)
				}
			}
		}
	}
}

func TestRelaxAxesAddsDescendantCandidates(t *testing.T) {
	opts := DefaultOptions()
	opts.Rules = "lub,leaf,axis"
	rec := recommendWith(t, opts, datagen.XMarkPaperWorkload())
	found := false
	for _, c := range rec.DAG.Nodes {
		if c.Pattern.DescendantCount() > 0 && c.Pattern.Len() > 1 {
			found = true
		}
	}
	if !found {
		t.Error("the axis rule produced no multi-step descendant candidates")
	}
}

func TestRecommendationCarriesPipelineStats(t *testing.T) {
	rec := recommendWith(t, DefaultOptions(), datagen.XMarkPaperWorkload())
	if rec.Gen.Source != "optimizer" {
		t.Errorf("pipeline source = %q", rec.Gen.Source)
	}
	if rec.Gen.Basic != len(rec.Basics) {
		t.Errorf("stats basic %d != %d basics", rec.Gen.Basic, len(rec.Basics))
	}
	if rec.Gen.Enumerated < rec.Gen.Basic {
		t.Errorf("enumerated %d < basic %d", rec.Gen.Enumerated, rec.Gen.Basic)
	}
	if rec.Gen.Generalized != len(rec.DAG.Nodes)-len(rec.Basics) {
		t.Errorf("stats generalized %d != %d DAG extras",
			rec.Gen.Generalized, len(rec.DAG.Nodes)-len(rec.Basics))
	}
	var lub bool
	for _, r := range rec.Gen.Rules {
		if r.Name == "lub" && r.Applied > 0 {
			lub = true
		}
	}
	if !lub {
		t.Errorf("no lub applications recorded: %+v", rec.Gen.Rules)
	}
}
