// Package stats collects and serves the path-level statistics that drive
// the optimizer's cost model and the advisor's index size estimation: per
// rooted path, the node count, the entries an index of each SQL type
// would hold, distinct counts, and equi-depth histograms over sampled
// values.
//
// This is the substrate standing in for DB2's RUNSTATS-collected XML
// statistics; the paper's Evaluate Indexes mode ("cost estimation using DB
// statistics" in Figure 1) reads exactly this kind of table.
package stats

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/xmldoc"
)

const (
	// distinctCap bounds the exact distinct-value tracking per path.
	distinctCap = 8192
	// sampleCap is the reservoir size per path for histogram building.
	sampleCap = 1024
	// maxValueLen truncates stored sample values.
	maxValueLen = 128
)

// PathStat aggregates statistics for one concrete rooted path.
type PathStat struct {
	Path  string
	Count int64 // nodes with this rooted path

	// Entries counts, per sqltype.Type, the nodes an index of that type
	// holds: those whose value sqltype.Cast accepts, the rule
	// xindex.DocNode.Key keys by. Every value casts to VARCHAR, so
	// Entries[sqltype.Varchar] == Count.
	Entries [sqltype.Date + 1]int64
	// TotalValueLen sums the sampled (truncated) value lengths, for the
	// VARCHAR key size.
	TotalValueLen int64

	distinct         map[string]struct{}
	distinctOverflow bool

	numSample []float64 // reservoir sample of numeric values
	strSample []string  // reservoir sample of string values, sorted by Collect
	seen      int64     // reservoir counter

	histOnce sync.Once
	numHist  *Histogram // built lazily from numSample
}

// Distinct returns the (possibly estimated) number of distinct values.
func (ps *PathStat) Distinct() int64 {
	if ps.distinctOverflow {
		// Cap hit: assume the tail kept introducing new values at half
		// the rate observed up to the cap.
		n := ps.Entries[sqltype.Varchar]
		return min(n, int64(len(ps.distinct))+(n-int64(len(ps.distinct)))/2)
	}
	return int64(len(ps.distinct))
}

// addValue counts one node's value as the indexes key it: an entry of
// every type whose cast accepts the full value.
func (ps *PathStat) addValue(raw string, rng *rand.Rand) {
	for _, t := range sqltype.Types {
		v, ok := sqltype.Cast(t, raw)
		if !ok {
			continue
		}
		ps.Entries[t]++
		if t == sqltype.Double {
			reservoirAdd(&ps.numSample, v.F, ps.seen, rng)
		}
	}
	if len(raw) > maxValueLen {
		raw = raw[:maxValueLen]
	}
	ps.TotalValueLen += int64(len(raw))
	if !ps.distinctOverflow {
		if ps.distinct == nil {
			ps.distinct = map[string]struct{}{}
		}
		ps.distinct[raw] = struct{}{}
		if len(ps.distinct) >= distinctCap {
			ps.distinctOverflow = true
		}
	}
	reservoirAdd(&ps.strSample, raw, ps.seen, rng)
	ps.seen++
}

func reservoirAdd[T any](sample *[]T, v T, seen int64, rng *rand.Rand) {
	if len(*sample) < sampleCap {
		*sample = append(*sample, v)
		return
	}
	if j := rng.Int63n(seen + 1); j < int64(sampleCap) {
		(*sample)[j] = v
	}
}

// NumHistogram returns the equi-depth histogram over the path's numeric
// values, or nil if there are none.
func (ps *PathStat) NumHistogram() *Histogram {
	// Concurrent what-if evaluations share the stats snapshot, so the
	// lazy build must be race-free.
	ps.histOnce.Do(func() {
		if len(ps.numSample) > 0 {
			ps.numHist = NewEquiDepth(ps.numSample, 32)
		}
	})
	return ps.numHist
}

// StrFractionBelow estimates the fraction of values < s (lexicographic),
// from the string sample.
func (ps *PathStat) StrFractionBelow(s string) float64 {
	if len(ps.strSample) == 0 {
		return 0.5
	}
	i := sort.SearchStrings(ps.strSample, s)
	return float64(i) / float64(len(ps.strSample))
}

// Stats is the statistics snapshot for one collection.
type Stats struct {
	Collection string
	Docs       int64
	Nodes      int64
	Bytes      int64
	Pages      int64
	PageSize   int
	Version    int64 // collection version this snapshot was built from

	Paths map[string]*PathStat

	mu         sync.Mutex
	matchCache map[string][]*PathStat
}

// Collect walks every document of the collection once and builds the
// statistics snapshot. Element values are the concatenated descendant
// text (the value DB2 indexes for an element node).
func Collect(c *store.Collection) *Stats {
	s := &Stats{
		Collection: c.Name(),
		Docs:       int64(c.Len()),
		Nodes:      c.NodeCount(),
		Bytes:      c.Bytes(),
		Pages:      c.Pages(),
		PageSize:   c.PageSize(),
		Version:    c.Version(),
		Paths:      map[string]*PathStat{},
		matchCache: map[string][]*PathStat{},
	}
	rng := rand.New(rand.NewSource(1)) // deterministic sampling
	c.Each(func(d *xmldoc.Document) bool {
		if d.Root != nil {
			s.walk(d.Root, "", rng)
		}
		return true
	})
	for _, ps := range s.Paths {
		sort.Strings(ps.strSample)
	}
	return s
}

func (s *Stats) walk(n *xmldoc.Node, prefix string, rng *rand.Rand) {
	var path string
	switch n.Kind {
	case xmldoc.KindElement:
		path = prefix + "/" + n.Name
	case xmldoc.KindAttribute:
		path = prefix + "/@" + n.Name
	case xmldoc.KindText:
		path = prefix + "/text()"
	}
	ps := s.Paths[path]
	if ps == nil {
		ps = &PathStat{Path: path}
		s.Paths[path] = ps
	}
	ps.Count++
	ps.addValue(n.Text(), rng)
	for _, a := range n.Attrs {
		s.walk(a, path, rng)
	}
	for _, c := range n.Children {
		s.walk(c, path, rng)
	}
}

// PathList returns all distinct rooted paths in sorted order.
func (s *Stats) PathList() []string {
	out := make([]string, 0, len(s.Paths))
	for p := range s.Paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Matching returns the PathStats whose concrete path matches the pattern,
// in sorted path order. Results are cached per pattern string.
func (s *Stats) Matching(p pattern.Pattern) []*PathStat {
	key := p.String()
	s.mu.Lock()
	if got, ok := s.matchCache[key]; ok {
		s.mu.Unlock()
		return got
	}
	s.mu.Unlock()

	m := pattern.InternedMatcher(p)
	var out []*PathStat
	for _, path := range s.PathList() {
		if m.MatchPath(path) {
			out = append(out, s.Paths[path])
		}
	}
	s.mu.Lock()
	s.matchCache[key] = out
	s.mu.Unlock()
	return out
}

// TypedCardinality returns the number of index entries a (pattern, type)
// index would hold: matched nodes whose values cast to the type.
func (s *Stats) TypedCardinality(p pattern.Pattern, t sqltype.Type) int64 {
	var n int64
	for _, ps := range s.Matching(p) {
		n += ps.Entries[t]
	}
	return n
}

// Selectivity estimates the fraction of the pattern's *indexable* nodes
// that satisfy (op, value). Exists predicates have selectivity 1 over the
// matched nodes.
func (s *Stats) Selectivity(p pattern.Pattern, op sqltype.CmpOp, v sqltype.Value) float64 {
	matched := s.Matching(p)
	var total int64
	for _, ps := range matched {
		total += ps.Entries[v.Type]
	}
	if op == sqltype.Exists {
		return 1.0
	}
	if total == 0 {
		return 0
	}
	var hit float64
	for _, ps := range matched {
		n := ps.Entries[v.Type]
		if n == 0 {
			continue
		}
		hit += float64(n) * pathSelectivity(ps, op, v)
	}
	sel := hit / float64(total)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func pathSelectivity(ps *PathStat, op sqltype.CmpOp, v sqltype.Value) float64 {
	switch op {
	case sqltype.Eq:
		d := ps.Distinct()
		if d == 0 {
			return 0
		}
		return 1.0 / float64(d)
	case sqltype.Ne:
		d := ps.Distinct()
		if d == 0 {
			return 0
		}
		return 1.0 - 1.0/float64(d)
	case sqltype.ContainsSubstr:
		return 0.1 // no substring statistics; fixed guess as in textbooks
	}
	// Range operators.
	if v.Type == sqltype.Varchar {
		below := ps.StrFractionBelow(v.S)
		switch op {
		case sqltype.Lt, sqltype.Le:
			return below
		case sqltype.Gt, sqltype.Ge:
			return 1 - below
		}
		return 0.3
	}
	h := ps.NumHistogram()
	if h == nil {
		return 0.3 // nothing numeric known; textbook default
	}
	below := h.FractionBelow(v.F)
	switch op {
	case sqltype.Lt:
		return below
	case sqltype.Le:
		return below + h.FractionEqual(v.F)
	case sqltype.Gt:
		return 1 - below - h.FractionEqual(v.F)
	case sqltype.Ge:
		return 1 - below
	}
	return 0.3
}

// Index size model constants (bytes per B+ tree entry beyond the key).
const (
	ridBytes       = 10  // doc id + node id, packed
	entryOverhead  = 6   // slot + prefix bytes
	btreeFill      = 0.7 // steady-state B+ tree page fill factor
	keyBytesDouble = 8
	keyBytesDate   = 4
)

// EstimateIndexBytes returns the estimated on-disk byte size of an index
// on (pattern, type).
func (s *Stats) EstimateIndexBytes(p pattern.Pattern, t sqltype.Type) int64 {
	entries := s.TypedCardinality(p, t)
	var keyLen float64
	switch t {
	case sqltype.Varchar:
		var totalLen int64
		for _, ps := range s.Matching(p) {
			totalLen += ps.TotalValueLen
		}
		if entries > 0 {
			keyLen = float64(totalLen) / float64(entries)
		}
	case sqltype.Double:
		keyLen = keyBytesDouble
	case sqltype.Date:
		keyLen = keyBytesDate
	}
	raw := float64(entries) * (keyLen + ridBytes + entryOverhead)
	return int64(raw / btreeFill)
}

// EstimateIndexPages returns the estimated page count of an index on
// (pattern, type); at least 1 for a non-empty index.
func (s *Stats) EstimateIndexPages(p pattern.Pattern, t sqltype.Type) int64 {
	b := s.EstimateIndexBytes(p, t)
	if b == 0 {
		return 0
	}
	pages := (b + int64(s.PageSize) - 1) / int64(s.PageSize)
	if pages < 1 {
		pages = 1
	}
	return pages
}
