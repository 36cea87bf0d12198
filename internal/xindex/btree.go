// Package xindex implements XML value indexes: page-structured B+ trees
// keyed by typed node values, where each index is defined — as in DB2
// pureXML — by an XML pattern and a SQL type. Only nodes reachable by the
// pattern whose values cast to the type are indexed (partial indexing).
package xindex

import (
	"fmt"
	"sort"

	"repro/internal/sqltype"
	"repro/internal/xmldoc"
)

// Entry is one index entry: a typed key plus the (document, node) it came
// from — the XML analogue of a RID. Path names the node's root path in
// the owning Index's path table (Index.PathWord); it takes no part in
// ordering, since a (document, node) pair has one path.
type Entry struct {
	Key  sqltype.Value
	Doc  xmldoc.DocID
	Node xmldoc.NodeID
	Path int32
}

// compareEntries orders entries by key, then doc, then node, making every
// entry unique in the tree.
func compareEntries(a, b Entry) int {
	if c := sqltype.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.Doc < b.Doc:
		return -1
	case a.Doc > b.Doc:
		return 1
	}
	switch {
	case a.Node < b.Node:
		return -1
	case a.Node > b.Node:
		return 1
	}
	return 0
}

// DefaultOrder is the maximum number of entries per leaf (and children per
// internal node). With ~24-byte entries this keeps a node near a 4 KB
// page, so node count approximates page count.
const DefaultOrder = 128

type bnode struct {
	leaf     bool
	entries  []Entry  // leaf only
	keys     []Entry  // internal: separator = smallest entry of children[i+1]
	children []*bnode // internal only
	next     *bnode   // leaf chain
}

// BTree is a B+ tree over Entries. The zero value is not usable; call
// NewBTree.
type BTree struct {
	order  int
	root   *bnode
	height int
	size   int
	leaves int
	inner  int
}

// NewBTree returns an empty tree with the given order (maximum fanout);
// order < 4 is raised to 4.
func NewBTree(order int) *BTree {
	if order < 4 {
		order = 4
	}
	return &BTree{
		order:  order,
		root:   &bnode{leaf: true},
		height: 1,
		leaves: 1,
	}
}

// Size returns the number of entries.
func (t *BTree) Size() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *BTree) Height() int { return t.height }

// Nodes returns (leafCount, innerCount). With order tuned to the page
// size, each node is one page.
func (t *BTree) Nodes() (leaves, inner int) { return t.leaves, t.inner }

// Insert adds an entry. Duplicate (key, doc, node) triples are ignored.
func (t *BTree) Insert(e Entry) {
	sep, right := t.insert(t.root, e)
	if right != nil {
		newRoot := &bnode{
			keys:     []Entry{sep},
			children: []*bnode{t.root, right},
		}
		t.root = newRoot
		t.inner++
		t.height++
	}
}

// insert descends to the correct leaf. On split it returns the separator
// entry and new right sibling; otherwise (Entry{}, nil).
func (t *BTree) insert(n *bnode, e Entry) (Entry, *bnode) {
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool {
			return compareEntries(n.entries[i], e) >= 0
		})
		if i < len(n.entries) && compareEntries(n.entries[i], e) == 0 {
			return Entry{}, nil // duplicate
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		t.size++
		if len(n.entries) <= t.order {
			return Entry{}, nil
		}
		// Split leaf.
		mid := len(n.entries) / 2
		right := &bnode{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid]
		right.next = n.next
		n.next = right
		t.leaves++
		return right.entries[0], right
	}
	ci := sort.Search(len(n.keys), func(i int) bool {
		return compareEntries(e, n.keys[i]) < 0
	})
	sep, right := t.insert(n.children[ci], e)
	if right == nil {
		return Entry{}, nil
	}
	n.keys = append(n.keys, Entry{})
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= t.order {
		return Entry{}, nil
	}
	// Split internal node.
	midKey := len(n.keys) / 2
	up := n.keys[midKey]
	rightNode := &bnode{
		keys:     append([]Entry(nil), n.keys[midKey+1:]...),
		children: append([]*bnode(nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey]
	n.children = n.children[:midKey+1]
	t.inner++
	return up, rightNode
}

// Delete removes the exact entry, reporting whether it was present.
// Leaves are allowed to underfill (lazy deletion); pages are reclaimed on
// Rebuild, which is how bulk maintenance is modeled.
func (t *BTree) Delete(e Entry) bool {
	n := t.root
	for !n.leaf {
		ci := sort.Search(len(n.keys), func(i int) bool {
			return compareEntries(e, n.keys[i]) < 0
		})
		n = n.children[ci]
	}
	i := sort.Search(len(n.entries), func(i int) bool {
		return compareEntries(n.entries[i], e) >= 0
	})
	if i >= len(n.entries) || compareEntries(n.entries[i], e) != 0 {
		return false
	}
	copy(n.entries[i:], n.entries[i+1:])
	n.entries = n.entries[:len(n.entries)-1]
	t.size--
	return true
}

// firstLeafFor positions at the first leaf that can contain key boundaries
// >= e.
func (t *BTree) leafFor(e Entry) *bnode {
	n := t.root
	for !n.leaf {
		ci := sort.Search(len(n.keys), func(i int) bool {
			return compareEntries(e, n.keys[i]) < 0
		})
		n = n.children[ci]
	}
	return n
}

// Bound is one end of a range scan.
type Bound struct {
	Value     sqltype.Value
	Inclusive bool
	Unbounded bool
}

// Unbounded returns a bound that does not constrain the scan.
func Unbounded() Bound { return Bound{Unbounded: true} }

// Incl returns an inclusive bound at v.
func Incl(v sqltype.Value) Bound { return Bound{Value: v, Inclusive: true} }

// Excl returns an exclusive bound at v.
func Excl(v sqltype.Value) Bound { return Bound{Value: v} }

// Range streams entries with lo <= key <= hi (subject to inclusivity) in
// key order to fn; fn returning false stops the scan. It returns the
// number of leaf nodes touched, which the executor uses to account I/O.
func (t *BTree) Range(lo, hi Bound, fn func(Entry) bool) int {
	var n *bnode
	if lo.Unbounded {
		n = t.root
		for !n.leaf {
			n = n.children[0]
		}
	} else {
		n = t.leafFor(Entry{Key: lo.Value, Doc: -1 << 62, Node: -1 << 30})
	}
	touched := 0
	for ; n != nil; n = n.next {
		touched++
		for _, e := range n.entries {
			if !lo.Unbounded {
				c := sqltype.Compare(e.Key, lo.Value)
				if c < 0 || (c == 0 && !lo.Inclusive) {
					continue
				}
			}
			if !hi.Unbounded {
				c := sqltype.Compare(e.Key, hi.Value)
				if c > 0 || (c == 0 && !hi.Inclusive) {
					return touched
				}
			}
			if !fn(e) {
				return touched
			}
		}
	}
	return touched
}

// Equal streams all entries with the given key.
func (t *BTree) Equal(v sqltype.Value, fn func(Entry) bool) int {
	return t.Range(Incl(v), Incl(v), fn)
}

// All streams every entry in key order.
func (t *BTree) All(fn func(Entry) bool) int {
	return t.Range(Unbounded(), Unbounded(), fn)
}

// BulkLoad builds a tree from entries (sorted internally) with leaves
// filled to the given factor (0 < fill <= 1), the standard bottom-up B+
// tree build.
func BulkLoad(order int, entries []Entry, fill float64) *BTree {
	if order < 4 {
		order = 4
	}
	if fill <= 0 || fill > 1 {
		fill = 0.7
	}
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return compareEntries(es[i], es[j]) < 0 })
	// Drop duplicates.
	dedup := es[:0]
	for i, e := range es {
		if i == 0 || compareEntries(e, es[i-1]) != 0 {
			dedup = append(dedup, e)
		}
	}
	es = dedup

	t := NewBTree(order)
	if len(es) == 0 {
		return t
	}
	perLeaf := int(float64(order) * fill)
	if perLeaf < 1 {
		perLeaf = 1
	}
	// Build leaf level.
	var leaves []*bnode
	for i := 0; i < len(es); i += perLeaf {
		j := i + perLeaf
		if j > len(es) {
			j = len(es)
		}
		leaves = append(leaves, &bnode{leaf: true, entries: append([]Entry(nil), es[i:j]...)})
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.leaves = len(leaves)
	t.size = len(es)
	// Build internal levels.
	level := leaves
	height := 1
	for len(level) > 1 {
		var parents []*bnode
		perNode := int(float64(order) * fill)
		if perNode < 2 {
			perNode = 2
		}
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			p := &bnode{children: append([]*bnode(nil), level[i:j]...)}
			for k := i + 1; k < j; k++ {
				p.keys = append(p.keys, smallestEntry(level[k]))
			}
			parents = append(parents, p)
			t.inner++
		}
		// A trailing parent with a single child is legal here; it only
		// wastes one page.
		level = parents
		height++
	}
	t.root = level[0]
	t.height = height
	return t
}

func smallestEntry(n *bnode) Entry {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0]
}

// Validate checks tree invariants: sorted leaves, correct leaf chaining,
// separator consistency, and size agreement. It returns an error
// describing the first violation, for tests and failure injection.
func (t *BTree) Validate() error {
	count := 0
	var prev *Entry
	var leafWalk func(n *bnode) error
	leafWalk = func(n *bnode) error {
		if n.leaf {
			for i := range n.entries {
				e := n.entries[i]
				if prev != nil && compareEntries(*prev, e) >= 0 {
					return fmt.Errorf("xindex: entries out of order: %v then %v", prev.Key, e.Key)
				}
				prev = &n.entries[i]
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("xindex: internal node with %d children, %d keys", len(n.children), len(n.keys))
		}
		for _, c := range n.children {
			if err := leafWalk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := leafWalk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("xindex: size mismatch: counted %d, recorded %d", count, t.size)
	}
	// Leaf chain must visit the same number of entries.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	chain := 0
	for ; n != nil; n = n.next {
		chain += len(n.entries)
	}
	if chain != t.size {
		return fmt.Errorf("xindex: leaf chain has %d entries, size %d", chain, t.size)
	}
	return nil
}
