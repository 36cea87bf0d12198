package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/snapshot"
	"repro/internal/sqltype"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// ErrSnapshotMismatch is the base error of every SnapshotMismatchError:
// the snapshot decoded cleanly but was taken under advisor options or
// catalog statistics that differ from this advisor's, so restoring it
// could not reproduce the original recommendations.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match this advisor")

// SnapshotMismatchError reports which compatibility check a restore
// failed. It unwraps to ErrSnapshotMismatch.
type SnapshotMismatchError struct {
	// Field names the check ("options", "collection <name>").
	Field string
	// Saved and Current are the conflicting values.
	Saved   string
	Current string
}

func (e *SnapshotMismatchError) Error() string {
	return fmt.Sprintf("core: snapshot does not match this advisor: %s: snapshot has %q, advisor has %q",
		e.Field, e.Saved, e.Current)
}

func (e *SnapshotMismatchError) Unwrap() error { return ErrSnapshotMismatch }

// ErrSnapshotInvalid reports a snapshot that passed the codec's
// structural validation but carries content this advisor cannot
// materialize (an unparseable pattern, query, or stats blob).
var ErrSnapshotInvalid = errors.New("core: snapshot content invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotInvalid, fmt.Sprintf(format, args...))
}

// optionsFingerprint renders the advisor options that shape prepared
// state — candidate source, generalization rules and budgets. Two
// advisors with equal fingerprints build
// identical candidate spaces and cache keys for a given workload and
// catalog, which is exactly what makes a snapshot portable between
// them. Tuning knobs that do not change prepared state (parallelism,
// cache sizing, budgets, search strategy) are deliberately excluded.
// The empty rule spec renders as "default", any other spec verbatim.
// The candidate thresholds and the trailing "noproj=false" are fixed
// literals now; keeping them (and the rule rendering) byte-identical
// lets snapshots written while those were selectable restore warm.
func (a *Advisor) optionsFingerprint() string {
	rules := a.opts.Rules
	if rules == "" {
		rules = "default"
	}
	return fmt.Sprintf("v1|src=%s|rules=%s|minshared=%d|maxcand=%d|noproj=false",
		a.candidateSource().Name(), rules, candidate.DefaultMinSharedSteps, candidate.DefaultMaxCandidates)
}

// Save serializes the prepared session's state — workload, candidate
// space with containment DAG and coverage, and the session's memoized
// what-if atoms — into the versioned snapshot format. It writes no
// Benefits section: the atoms hold every standalone evaluation, so a
// restore rebuilds the benefit matrix from them. A Prepared restored
// from the output on an advisor with equal options over unchanged
// collections recommends byte-identically without re-enumeration and
// with no CostService calls.
func (p *Prepared) Save(w io.Writer) error {
	snap, err := p.buildSnapshot()
	if err != nil {
		return err
	}
	return snapshot.Encode(w, snap)
}

func (p *Prepared) buildSnapshot() (*snapshot.Snapshot, error) {
	a := p.a
	s := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			CreatedUnixMS: time.Now().UnixMilli(),
			WorkloadName:  p.w.Name,
			OptionsFP:     a.optionsFingerprint(),
		},
	}
	a.verMu.Lock()
	for _, coll := range p.w.Collections() {
		v, ok := a.catVersions[coll]
		if !ok {
			a.verMu.Unlock()
			return nil, fmt.Errorf("core: snapshot: no recorded statistics version for collection %q", coll)
		}
		s.Meta.Collections = append(s.Meta.Collections, snapshot.CollectionVersion{Name: coll, Version: v})
	}
	a.verMu.Unlock()

	for _, e := range p.w.Queries {
		s.Workload.Queries = append(s.Workload.Queries, snapshot.QueryData{
			ID: e.Query.ID, Weight: e.Weight, Text: e.Query.Text,
		})
	}
	for _, u := range p.w.Updates {
		ud := snapshot.UpdateData{
			Kind: uint8(u.Kind), Collection: u.Collection, Weight: u.Weight, DocXML: u.DocXML,
		}
		if u.Path != nil {
			ud.Path = u.Path.String()
		}
		s.Workload.Updates = append(s.Workload.Updates, ud)
	}

	// Pattern table: first-occurrence order over the candidate space.
	patID := map[string]uint32{}
	internPat := func(pt pattern.Pattern) uint32 {
		key := pt.String()
		if id, ok := patID[key]; ok {
			return id
		}
		id := uint32(len(s.Patterns))
		patID[key] = id
		s.Patterns = append(s.Patterns, key)
		return id
	}
	pos := make(map[*Candidate]int32, len(p.set.All))
	for i, c := range p.set.All {
		pos[c] = int32(i)
	}
	s.Space.NumQueries = len(p.w.Queries)
	for _, c := range p.set.All {
		cd := snapshot.CandidateData{
			Collection: c.Collection,
			PatternID:  internPat(c.Pattern),
			Type:       c.Type.Short(),
			Basic:      c.Basic,
			Rule:       c.Rule,
			DefName:    c.Def.Name,
			EstEntries: c.Def.EstEntries,
			EstPages:   c.Def.EstPages,
			Covers:     c.Covers(),
		}
		for _, q := range c.FromQueries {
			cd.FromQueries = append(cd.FromQueries, int32(q))
		}
		for _, ch := range c.Children {
			cd.Children = append(cd.Children, pos[ch])
		}
		s.Space.Candidates = append(s.Space.Candidates, cd)
	}
	for _, b := range p.set.Basics {
		s.Space.Basics = append(s.Space.Basics, pos[b])
	}
	statsJSON, err := json.Marshal(p.set.Stats)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: marshal pipeline stats: %w", err)
	}
	s.Space.StatsJSON = statsJSON

	// Only this session's atoms, out of the engine cache it shares.
	atoms := p.ev.bound.ExportAtoms()
	for _, at := range atoms {
		s.Atoms = append(s.Atoms, snapshot.Atom{
			Key:           at.Key,
			CostNoIndexes: at.Val.CostNoIndexes,
			Cost:          at.Val.Cost,
			UsedIndexes:   at.Val.UsedIndexes,
		})
	}
	return s, nil
}

// LoadPrepared restores a Prepared session from a snapshot stream: the
// candidate space and DAG are rebuilt without enumeration or
// containment work, and the saved what-if atoms are imported into the
// engine's cache before the evaluator binds, so the base-cost evaluation
// and the benefit matrix, rebuilt from those atoms, are cache hits. A
// Benefits section, which snapshots of earlier builds carry, is ignored.
// It fails with the codec's typed errors on bad input,
// ErrSnapshotMismatch when options or catalog statistics diverged, and
// ErrSnapshotInvalid when decoded content cannot be materialized.
func (a *Advisor) LoadPrepared(ctx context.Context, r io.Reader) (*Prepared, error) {
	snap, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	return a.restorePrepared(ctx, snap)
}

func (a *Advisor) restorePrepared(ctx context.Context, snap *snapshot.Snapshot) (*Prepared, error) {
	if fp := a.optionsFingerprint(); snap.Meta.OptionsFP != fp {
		return nil, &SnapshotMismatchError{Field: "options", Saved: snap.Meta.OptionsFP, Current: fp}
	}
	// Catalog statistics must be unchanged: cached costs and size
	// estimates were computed against these versions.
	for _, cv := range snap.Meta.Collections {
		st, err := a.cat.Stats(cv.Name)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot collection %q: %w", cv.Name, err)
		}
		if st.Version != cv.Version {
			return nil, &SnapshotMismatchError{
				Field:   "collection " + cv.Name,
				Saved:   fmt.Sprintf("stats version %d", cv.Version),
				Current: fmt.Sprintf("stats version %d", st.Version),
			}
		}
	}

	w := &workload.Workload{Name: snap.Meta.WorkloadName}
	for _, q := range snap.Workload.Queries {
		pq, err := querylang.ParseAuto(q.Text)
		if err != nil {
			return nil, invalidf("query %s: %v", q.ID, err)
		}
		pq.ID = q.ID
		w.Queries = append(w.Queries, workload.Entry{Query: pq, Weight: q.Weight})
	}
	for i, u := range snap.Workload.Updates {
		add, arg := w.AddInsert, u.DocXML
		if u.Kind == uint8(workload.UpdateDelete) {
			add, arg = w.AddDelete, u.Path
		}
		if err := add(u.Weight, u.Collection, arg); err != nil {
			return nil, invalidf("update %d: %v", i, err)
		}
	}

	pats := make([]pattern.Pattern, len(snap.Patterns))
	for i, ps := range snap.Patterns {
		pt, err := pattern.Parse(ps)
		if err != nil {
			return nil, invalidf("pattern %q: %v", ps, err)
		}
		pats[i] = pt
	}

	all := make([]*Candidate, len(snap.Space.Candidates))
	children := make([][]int32, len(snap.Space.Candidates))
	for i, cd := range snap.Space.Candidates {
		ty, err := sqltype.ParseType(cd.Type)
		if err != nil {
			return nil, invalidf("candidate %d type %q: %v", i, cd.Type, err)
		}
		pt := pats[cd.PatternID]
		c := &Candidate{
			Collection: cd.Collection,
			Pattern:    pt,
			Type:       ty,
			Basic:      cd.Basic,
			Rule:       cd.Rule,
			Def: &catalog.IndexDef{
				Name:       cd.DefName,
				Collection: cd.Collection,
				Pattern:    pt,
				Type:       ty,
				Virtual:    true,
				EstEntries: cd.EstEntries,
				EstPages:   cd.EstPages,
			},
		}
		for _, q := range cd.FromQueries {
			c.FromQueries = append(c.FromQueries, int(q))
		}
		c.SetCovers(cd.Covers)
		all[i] = c
		children[i] = cd.Children
	}
	var cstats candidate.Stats
	if len(snap.Space.StatsJSON) > 0 {
		if err := json.Unmarshal(snap.Space.StatsJSON, &cstats); err != nil {
			return nil, invalidf("pipeline stats: %v", err)
		}
	}
	set := candidate.AssembleSet(all, snap.Space.Basics, children, cstats)

	// Warm the cache before the evaluator binds: newEvaluator's empty-
	// configuration base evaluation must already be a hit, so a restore
	// costs zero CostService calls when the snapshot carries its atoms.
	atoms := make([]whatif.CachedAtom, len(snap.Atoms))
	for i, at := range snap.Atoms {
		atoms[i] = whatif.CachedAtom{Key: at.Key, Val: whatif.QueryEval{
			CostNoIndexes: at.CostNoIndexes,
			Cost:          at.Cost,
			UsedIndexes:   at.UsedIndexes,
		}}
	}
	a.cost.ImportAtoms(atoms)

	// Record the verified statistics versions so a later Recommend on
	// the same collections does not flush the cache we just warmed.
	a.verMu.Lock()
	for _, cv := range snap.Meta.Collections {
		a.catVersions[cv.Name] = cv.Version
	}
	a.verMu.Unlock()

	return a.assemble(ctx, w, set)
}
