package candidate

// AssembleSet reconstructs a pipeline-built Set from serialized parts:
// the candidates in their original dense-ID order (IDs are assigned
// from position), the containment DAG as a direct-children adjacency
// (indices into all), the basic subset as indices into all, and the
// original pipeline stats. Parents, roots, and the Key-sorted ordering
// invariants are rebuilt here, so a Set restored from a snapshot is
// structurally identical to the pipeline's output. Callers fill each
// candidate's scalar fields, Def, and coverage (SetCovers) beforehand.
func AssembleSet(all []*Candidate, basics []int32, children [][]int32, st Stats) *Set {
	for i, c := range all {
		c.ID = i
	}
	for i, chs := range children {
		p := all[i]
		for _, j := range chs {
			ch := all[j]
			p.Children = append(p.Children, ch)
			ch.Parents = append(ch.Parents, p)
		}
	}
	dag := &DAG{Nodes: all}
	for _, c := range all {
		SortByKey(c.Children)
		SortByKey(c.Parents)
		if len(c.Parents) == 0 {
			dag.Roots = append(dag.Roots, c)
		}
	}
	SortByKey(dag.Roots)
	set := &Set{All: all, DAG: dag, Stats: st}
	if len(basics) > 0 {
		set.Basics = make([]*Candidate, len(basics))
		for i, b := range basics {
			set.Basics[i] = all[b]
		}
	}
	return set
}
