// Package store implements the document store substrate: named collections
// of parsed XML documents with page-based size accounting. It stands in
// for the DB2 pureXML table storage that the paper's advisor runs against;
// the advisor and optimizer only need document trees plus realistic page
// counts for costing, which this package provides.
package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xmldoc"
)

// DefaultPageSize is the simulated disk page size in bytes, matching the
// 4 KB default of DB2 table spaces.
const DefaultPageSize = 4096

// perNodeOverhead approximates the per-node storage overhead of a native
// XML store (node kind, IDs, offsets).
const perNodeOverhead = 16

// Collection is a named set of XML documents — the analogue of a table
// with one XML column.
type Collection struct {
	name     string
	pageSize int

	mu      sync.RWMutex
	docs    []*xmldoc.Document // insertion order
	byID    map[xmldoc.DocID]int
	nextID  xmldoc.DocID
	bytes   int64 // total estimated storage bytes
	nodes   int64 // total node count
	version int64 // bumped on every mutation; consumers cache against it
}

// NewCollection creates an empty collection with the default page size.
func NewCollection(name string) *Collection {
	return &Collection{
		name:     name,
		pageSize: DefaultPageSize,
		byID:     map[xmldoc.DocID]int{},
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// PageSize returns the simulated page size in bytes.
func (c *Collection) PageSize() int { return c.pageSize }

// docBytes estimates the stored size of a document.
func docBytes(d *xmldoc.Document) int64 {
	var b int64
	for _, n := range d.Nodes {
		b += int64(len(n.Name)+len(n.Value)) + perNodeOverhead
	}
	return b
}

// Insert adds a parsed document and returns its assigned DocID.
func (c *Collection) Insert(d *xmldoc.Document) xmldoc.DocID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	d.ID = id
	c.byID[id] = len(c.docs)
	c.docs = append(c.docs, d)
	c.bytes += docBytes(d)
	c.nodes += int64(len(d.Nodes))
	c.version++
	return id
}

// InsertXML parses src and inserts the resulting document.
func (c *Collection) InsertXML(src string) (xmldoc.DocID, error) {
	d, err := xmldoc.ParseString(src)
	if err != nil {
		return 0, fmt.Errorf("store: insert into %s: %w", c.name, err)
	}
	return c.Insert(d), nil
}

// Delete removes the document with the given ID. It reports whether the
// document existed.
func (c *Collection) Delete(id xmldoc.DocID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byID[id]
	if !ok {
		return false
	}
	d := c.docs[idx]
	c.bytes -= docBytes(d)
	c.nodes -= int64(len(d.Nodes))
	copy(c.docs[idx:], c.docs[idx+1:])
	c.docs = c.docs[:len(c.docs)-1]
	delete(c.byID, id)
	for i := idx; i < len(c.docs); i++ {
		c.byID[c.docs[i].ID] = i
	}
	c.version++
	return true
}

// Get returns the document with the given ID, or nil.
func (c *Collection) Get(id xmldoc.DocID) *xmldoc.Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if idx, ok := c.byID[id]; ok {
		return c.docs[idx]
	}
	return nil
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// NodeCount returns the total number of nodes across all documents.
func (c *Collection) NodeCount() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes
}

// Bytes returns the estimated total storage size in bytes.
func (c *Collection) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Pages returns the estimated number of pages the collection occupies.
func (c *Collection) Pages() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return pagesFor(c.bytes, c.pageSize)
}

func pagesFor(bytes int64, pageSize int) int64 {
	p := (bytes + int64(pageSize) - 1) / int64(pageSize)
	if p < 1 && bytes > 0 {
		p = 1
	}
	return p
}

// Version returns a counter bumped by every mutation; statistics and index
// consumers use it to detect staleness.
func (c *Collection) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Each calls fn for every document in insertion order; fn returning false
// stops the scan. Each holds a read lock: fn must not mutate the
// collection.
func (c *Collection) Each(fn func(*xmldoc.Document) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, d := range c.docs {
		if !fn(d) {
			return
		}
	}
}

// Docs returns a snapshot slice of the documents in insertion order.
func (c *Collection) Docs() []*xmldoc.Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*xmldoc.Document, len(c.docs))
	copy(out, c.docs)
	return out
}

// Store is a set of named collections — the analogue of a database.
type Store struct {
	mu   sync.RWMutex
	cols map[string]*Collection
}

// New creates an empty store.
func New() *Store {
	return &Store{cols: map[string]*Collection{}}
}

// Create adds a new empty collection, failing if the name exists.
func (s *Store) Create(name string) (*Collection, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cols[name]; ok {
		return nil, fmt.Errorf("store: collection %q already exists", name)
	}
	c := NewCollection(name)
	s.cols[name] = c
	return c, nil
}

// MustCreate is Create panicking on error, for setup code.
func (s *Store) MustCreate(name string) *Collection {
	c, err := s.Create(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Get returns the named collection, or nil.
func (s *Store) Get(name string) *Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols[name]
}

// Names returns the collection names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
