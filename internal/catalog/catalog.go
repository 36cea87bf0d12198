// Package catalog implements the database catalog: the registry of
// collections, their statistics snapshots, and their indexes — both real
// (backed by a B+ tree) and virtual. Virtual indexes exist only as catalog
// metadata with estimated sizes; they are the mechanism (borrowed from
// DB2's relational advisor [8] and extended by the paper to candidate
// *enumeration*) that lets the optimizer cost hypothetical configurations
// without building anything.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/xindex"
	"repro/internal/xmldoc"
)

// IndexDef describes one index, real or virtual.
type IndexDef struct {
	Name       string
	Collection string
	Pattern    pattern.Pattern
	Type       sqltype.Type
	Virtual    bool

	// Estimated size (always populated; for real indexes it is refreshed
	// from the physical structure).
	EstEntries int64
	EstPages   int64

	// Phys is the physical structure; nil for virtual indexes.
	Phys *xindex.Index
}

// Pages returns the index size in pages: physical if built, estimated
// otherwise.
func (d *IndexDef) Pages() int64 {
	if d.Phys != nil {
		return d.Phys.Pages()
	}
	return d.EstPages
}

// Entries returns the (estimated or actual) entry count.
func (d *IndexDef) Entries() int64 {
	if d.Phys != nil {
		return int64(d.Phys.Entries())
	}
	return d.EstEntries
}

// DDL renders the DB2-style CREATE INDEX statement.
func (d *IndexDef) DDL() string {
	return xindex.DDL(d.Name, d.Collection, d.Pattern, d.Type)
}

// Key identifies an index by what it indexes rather than by name.
func (d *IndexDef) Key() string {
	return d.Collection + "|" + d.Pattern.String() + "|" + d.Type.Short()
}

// String summarizes the definition.
func (d *IndexDef) String() string {
	kind := "real"
	if d.Virtual {
		kind = "virtual"
	}
	return fmt.Sprintf("%s [%s on %s AS %s, %s, ~%d entries, ~%d pages]",
		d.Name, d.Pattern, d.Collection, d.Type.Short(), kind, d.Entries(), d.Pages())
}

// Catalog is the registry of collections, statistics, and indexes.
type Catalog struct {
	st *store.Store

	mu      sync.Mutex
	stats   map[string]*stats.Stats
	indexes map[string]*IndexDef // by name
}

// New creates a catalog over the given store.
func New(st *store.Store) *Catalog {
	return &Catalog{
		st:      st,
		stats:   map[string]*stats.Stats{},
		indexes: map[string]*IndexDef{},
	}
}

// Store returns the underlying document store.
func (c *Catalog) Store() *store.Store { return c.st }

// Collection returns the named collection or an error.
func (c *Catalog) Collection(name string) (*store.Collection, error) {
	col := c.st.Get(name)
	if col == nil {
		return nil, fmt.Errorf("catalog: unknown collection %q", name)
	}
	return col, nil
}

// Stats returns the statistics snapshot for the collection, collecting (or
// re-collecting after mutations) on demand — the RUNSTATS analogue.
func (c *Catalog) Stats(coll string) (*stats.Stats, error) {
	col, err := c.Collection(coll)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats[coll]
	if s == nil || s.Version != col.Version() {
		s = stats.Collect(col)
		c.stats[coll] = s
	}
	return s, nil
}

// CreateIndex builds a physical index over the collection and registers
// it. The name must be unused.
func (c *Catalog) CreateIndex(name, coll string, p pattern.Pattern, t sqltype.Type) (*IndexDef, error) {
	col, err := c.Collection(coll)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, dup := c.indexes[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	c.mu.Unlock()

	phys := xindex.Build(name, p, t, col)
	def := &IndexDef{
		Name:       name,
		Collection: coll,
		Pattern:    p,
		Type:       t,
		EstEntries: int64(phys.Entries()),
		EstPages:   phys.Pages(),
		Phys:       phys,
	}
	c.mu.Lock()
	c.indexes[name] = def
	c.mu.Unlock()
	return def, nil
}

// VirtualDef constructs (without registering) a virtual index definition
// with sizes estimated from the given statistics. The optimizer's EXPLAIN
// modes use unregistered definitions to simulate configurations without
// touching the shared catalog.
func VirtualDef(name, coll string, p pattern.Pattern, t sqltype.Type, s *stats.Stats) *IndexDef {
	return &IndexDef{
		Name:       name,
		Collection: coll,
		Pattern:    p,
		Type:       t,
		Virtual:    true,
		EstEntries: s.TypedCardinality(p, t),
		EstPages:   s.EstimateIndexPages(p, t),
	}
}

// DropIndex removes the named index, reporting whether it existed.
func (c *Catalog) DropIndex(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; !ok {
		return false
	}
	delete(c.indexes, name)
	return true
}

// Index returns the named index definition, or nil.
func (c *Catalog) Index(name string) *IndexDef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.indexes[name]
}

// Indexes returns the index definitions for a collection, sorted by name.
// An empty collection name returns all indexes.
func (c *Catalog) Indexes(coll string) []*IndexDef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*IndexDef
	for _, d := range c.indexes {
		if coll == "" || d.Collection == coll {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InsertDocument parses and inserts a document into the collection and
// maintains every registered physical index on it — the write path of a
// real system, and the work the advisor's update-cost model charges for.
// It returns the new document's ID and the number of index entries
// added.
func (c *Catalog) InsertDocument(coll, src string) (xmldoc.DocID, int, error) {
	col, err := c.Collection(coll)
	if err != nil {
		return 0, 0, err
	}
	id, err := col.InsertXML(src)
	if err != nil {
		return 0, 0, err
	}
	doc := col.Get(id)
	entries := 0
	for _, def := range c.Indexes(coll) {
		if def.Phys != nil {
			entries += def.Phys.InsertDoc(doc)
			def.EstEntries = int64(def.Phys.Entries())
			def.EstPages = def.Phys.Pages()
		}
	}
	return id, entries, nil
}

// DeleteDocument removes a document and its entries from every
// registered physical index, returning the number of entries removed.
func (c *Catalog) DeleteDocument(coll string, id xmldoc.DocID) (int, error) {
	col, err := c.Collection(coll)
	if err != nil {
		return 0, err
	}
	doc := col.Get(id)
	if doc == nil {
		return 0, fmt.Errorf("catalog: no document %d in %q", id, coll)
	}
	removed := 0
	for _, def := range c.Indexes(coll) {
		if def.Phys != nil {
			removed += def.Phys.DeleteDoc(doc)
			def.EstEntries = int64(def.Phys.Entries())
			def.EstPages = def.Phys.Pages()
		}
	}
	col.Delete(id)
	return removed, nil
}
