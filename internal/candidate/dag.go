package candidate

import (
	"fmt"
	"sort"
	"strings"
)

// DAG is the candidate generalization DAG (paper §2.2, Figure 4): nodes
// are candidate indexes; an edge runs from a generalization (parent) to
// each of its most specific covered candidates (children). Roots are the
// most general candidates obtainable from the workload.
type DAG struct {
	Nodes []*Candidate
	Roots []*Candidate
}

// buildDAG wires parent/child edges by pattern containment with
// transitive reduction, per (collection, type) stratum. The containment
// relation is computed once as a Bitset-row matrix (leaf-bucketed pair
// pre-filtering, structural fast paths) and reduced word-parallel; see
// matrix.go.
func buildDAG(all []*Candidate) *DAG {
	dag, _ := buildDAGMatrix(all)
	return dag
}

// buildDAGMatrix is buildDAG, also returning the underlying containment
// matrix so the pipeline can reuse it for the covers bitmaps and report
// its stats.
func buildDAGMatrix(all []*Candidate) (*DAG, *containmentMatrix) {
	mx := newContainmentMatrix(all)
	direct := mx.reduce()
	for i, row := range direct {
		for j := range row.Each {
			all[i].Children = append(all[i].Children, all[j])
			all[j].Parents = append(all[j].Parents, all[i])
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
	return dag, mx
}

// SortByKey orders candidates by what they index, independent of ID
// assignment, so every DAG rendering, traversal and recommendation
// listing is stable across runs and rule configurations.
func SortByKey(cs []*Candidate) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Key() < cs[j].Key() })
}

// Edges returns the number of DAG edges.
func (d *DAG) Edges() int {
	n := 0
	for _, c := range d.Nodes {
		n += len(c.Children)
	}
	return n
}

// Render draws the DAG as indented text, roots first (the content of the
// paper's Figure 4 visualization). Roots and children are walked in Key
// order, so the output is deterministic for a given candidate set.
func (d *DAG) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "candidate DAG: %d nodes, %d edges, %d roots\n", len(d.Nodes), d.Edges(), len(d.Roots))
	seen := map[int]bool{}
	var walk func(c *Candidate, depth int)
	walk = func(c *Candidate, depth int) {
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth+1), c)
		if seen[c.ID] {
			return
		}
		seen[c.ID] = true
		for _, ch := range c.Children {
			walk(ch, depth+1)
		}
	}
	for _, r := range d.Roots {
		walk(r, 0)
	}
	return sb.String()
}
