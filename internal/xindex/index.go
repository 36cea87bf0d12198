package xindex

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/xmldoc"
)

// Index is a physical XML value index over one collection: a B+ tree of
// (typed value, doc, node) entries for every node reachable by the index
// pattern whose value casts to the index type.
type Index struct {
	Name    string
	Pattern pattern.Pattern
	Type    sqltype.Type

	matcher *pattern.Matcher
	tree    *BTree
	order   int

	// paths is the table of distinct root-path words of indexed nodes,
	// which Entry.Path indexes; pathIDs finds a rendered path's slot.
	paths   [][]pattern.Sym
	pathIDs map[string]int32
}

// New creates an empty physical index.
func New(name string, p pattern.Pattern, t sqltype.Type) *Index {
	return &Index{
		Name:    name,
		Pattern: p,
		Type:    t,
		matcher: pattern.InternedMatcher(p),
		tree:    NewBTree(DefaultOrder),
		order:   DefaultOrder,
		pathIDs: map[string]int32{},
	}
}

// Build constructs the index over the whole collection with a bulk load,
// replacing any previous contents.
func Build(name string, p pattern.Pattern, t sqltype.Type, c *store.Collection) *Index {
	ix := New(name, p, t)
	var entries []Entry
	c.Each(func(d *xmldoc.Document) bool {
		entries = append(entries, ix.docEntries(d)...)
		return true
	})
	ix.tree = BulkLoad(ix.order, entries, 0.7)
	return ix
}

// docEntries extracts the index entries a document contributes.
func (ix *Index) docEntries(d *xmldoc.Document) []Entry {
	var out []Entry
	for _, n := range DocNodes(d) {
		if v, ok := n.Key(ix.matcher, ix.Type); ok {
			out = append(out, Entry{Key: v, Doc: d.ID, Node: n.ID, Path: ix.pathID(&n)})
		}
	}
	return out
}

// pathID returns n's slot in the path table, adding its word on first
// sight.
func (ix *Index) pathID(n *DocNode) int32 {
	id, ok := ix.pathIDs[n.Path]
	if !ok {
		id = int32(len(ix.paths))
		ix.paths = append(ix.paths, n.Word)
		ix.pathIDs[n.Path] = id
	}
	return id
}

// PathWord returns the root-path word of the entries whose Path is id,
// so a scan can check a residual path once per distinct path instead of
// once per entry.
func (ix *Index) PathWord(id int32) []pattern.Sym { return ix.paths[id] }

// DocNode is one node of a document as a value index sees it: the node's
// root path, rendered and parsed into a word, and the raw value the index
// casts to its key type (an element's text content, an attribute's or a
// text node's value).
type DocNode struct {
	ID   xmldoc.NodeID
	Path string
	Word []pattern.Sym
	Raw  string
}

// DocNodes lists, in document order, every node of d an index can hold.
// Nodes whose root path does not parse as a concrete path word are left
// out: no pattern matches them. Callers that key many indexes from one
// document compute the list once and run Key per index.
func DocNodes(d *xmldoc.Document) []DocNode {
	var out []DocNode
	d.Walk(func(n *xmldoc.Node) bool {
		path := n.RootPath()
		word, err := pattern.ParseWord(path)
		if err != nil {
			return true
		}
		out = append(out, DocNode{ID: n.ID, Path: path, Word: word, Raw: n.Text()})
		return true
	})
	return out
}

// Key is the entry key n contributes to an index whose pattern compiles
// to m and whose type is t; ok is false when the pattern does not match
// n's path or n's value does not cast to t. This is the one rule for what
// a typed index holds: a node is an entry iff sqltype.Cast(t, n's value)
// accepts it, and the cast value is its key. Every value casts to
// VARCHAR, empty ones included. The statistics count entries by the same
// cast (stats.PathStat.Entries), so estimated and built sizes agree.
func (n *DocNode) Key(m *pattern.Matcher, t sqltype.Type) (sqltype.Value, bool) {
	if !m.MatchWord(n.Word) {
		return sqltype.Value{}, false
	}
	return sqltype.Cast(t, n.Raw)
}

// InsertDoc adds a document's entries (index maintenance on insert). It
// returns the number of entries added — the work an update statement pays.
func (ix *Index) InsertDoc(d *xmldoc.Document) int {
	es := ix.docEntries(d)
	for _, e := range es {
		ix.tree.Insert(e)
	}
	return len(es)
}

// DeleteDoc removes a document's entries (index maintenance on delete).
func (ix *Index) DeleteDoc(d *xmldoc.Document) int {
	es := ix.docEntries(d)
	removed := 0
	for _, e := range es {
		if ix.tree.Delete(e) {
			removed++
		}
	}
	return removed
}

// Entries returns the number of entries in the index.
func (ix *Index) Entries() int { return ix.tree.Size() }

// Pages returns the index size in pages (one tree node per page, as the
// order is tuned to the page size).
func (ix *Index) Pages() int64 {
	leaves, inner := ix.tree.Nodes()
	return int64(leaves + inner)
}

// Height returns the B+ tree height.
func (ix *Index) Height() int { return ix.tree.Height() }

// Tree exposes the underlying B+ tree for validation in tests.
func (ix *Index) Tree() *BTree { return ix.tree }

// ScanResult is the outcome of an index scan.
type ScanResult struct {
	Entries     []Entry
	LeavesRead  int
	TreeTraveld int // root-to-leaf descent length
}

// Scan evaluates (op, value) against the index. Eq and the range
// operators use a B+ tree descent plus a bounded leaf walk; Ne and
// ContainsSubstr fall back to a full leaf scan with residual filtering.
func (ix *Index) Scan(op sqltype.CmpOp, v sqltype.Value) (ScanResult, error) {
	if op != sqltype.Exists && op != sqltype.ContainsSubstr && v.Type != ix.Type {
		return ScanResult{}, fmt.Errorf("xindex: %s scan with %v constant on %v index", ix.Name, v.Type, ix.Type)
	}
	res := ScanResult{TreeTraveld: ix.tree.Height()}
	collect := func(e Entry) bool {
		res.Entries = append(res.Entries, e)
		return true
	}
	switch op {
	case sqltype.Exists:
		res.LeavesRead = ix.tree.All(collect)
	case sqltype.Eq:
		res.LeavesRead = ix.tree.Equal(v, collect)
	case sqltype.Lt:
		res.LeavesRead = ix.tree.Range(Unbounded(), Excl(v), collect)
	case sqltype.Le:
		res.LeavesRead = ix.tree.Range(Unbounded(), Incl(v), collect)
	case sqltype.Gt:
		res.LeavesRead = ix.tree.Range(Excl(v), Unbounded(), collect)
	case sqltype.Ge:
		res.LeavesRead = ix.tree.Range(Incl(v), Unbounded(), collect)
	case sqltype.Ne:
		res.LeavesRead = ix.tree.All(func(e Entry) bool {
			if sqltype.Compare(e.Key, v) != 0 {
				res.Entries = append(res.Entries, e)
			}
			return true
		})
	case sqltype.ContainsSubstr:
		res.LeavesRead = ix.tree.All(func(e Entry) bool {
			if ix.Type == sqltype.Varchar && strings.Contains(e.Key.S, v.S) {
				res.Entries = append(res.Entries, e)
			}
			return true
		})
	default:
		return ScanResult{}, fmt.Errorf("xindex: unsupported operator %v", op)
	}
	return res, nil
}

// DDL renders the DB2-style CREATE INDEX statement for this index over
// the named collection.
func DDL(name, collection string, p pattern.Pattern, t sqltype.Type) string {
	return "CREATE INDEX " + name + " ON " + strings.ToUpper(collection) +
		"(DOC) GENERATE KEY USING XMLPATTERN '" + p.String() + "' AS SQL " + t.String()
}
