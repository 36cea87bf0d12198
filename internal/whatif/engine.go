package whatif

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/querylang"
)

// Options configure an Engine.
type Options struct {
	// Workers bounds concurrent per-query cost evaluations across all
	// callers of the engine; 0 means GOMAXPROCS.
	Workers int
	// MaxEntries caps the number of memoized per-(query, sub-config)
	// atoms (approximately, split across shards); 0 means unlimited.
	MaxEntries int
}

// Stats are what-if counters: an engine's lifetime totals
// (Engine.Stats) or the work charged to one Tally. A cache "hit" includes
// joining an in-flight evaluation of the same atom (the singleflight
// path) and reading an atom from a Bound's base memo; "evaluations"
// counts per-query CostService calls. Hits, misses, and the projection
// counters are per atom resolved — one (query, projected sub-config)
// atom each, whether looked up in the cache or served by the memo. An
// extension batch resolves a query's base projection at most once and
// an extension's atom only for the queries the added definition is
// relevant to; the other queries reuse the base's atom and count
// nothing.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evaluations int64 `json:"evaluations"`
	// ProjectedHits counts hits on atoms whose projected sub-config
	// dropped at least one definition of the requested configuration —
	// sharing that whole-configuration keying could never have found.
	ProjectedHits int64 `json:"projectedHits"`
	// RelevantDefs sums projected sub-config sizes over every atom
	// lookup; RelevantDefs / (Hits + Misses) is the mean relevance-set
	// size the engine actually costed against.
	RelevantDefs int64 `json:"relevantDefs"`
	// Resilience counts the resilience middleware's retries, breaker
	// trips and rejects, call timeouts and recovered panics, plus the
	// panics the engine itself recovered; zero-valued when the service
	// stack has no resilience layer and nothing panicked.
	Resilience ResilienceStats `json:"resilience,omitzero"`
}

// HitRate is hits / (hits + misses), or 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// MeanRelevant is the mean projected sub-config size per atom lookup,
// or 0 when nothing was looked up.
func (s Stats) MeanRelevant() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.RelevantDefs) / float64(t)
	}
	return 0
}

// ConfigEval is one configuration evaluation: the cost of every query
// (in input order) under the configuration, reassembled from
// per-(query, projected sub-config) atoms. The QueryEvals are the
// cache's own and must not be mutated.
type ConfigEval struct {
	Queries []*QueryEval
}

// entry is one cache slot; ready is closed once val/err are set, so
// concurrent requests for the same atom wait instead of re-evaluating.
type entry struct {
	ready chan struct{}
	val   QueryEval
	err   error
}

// orderEntry is one FIFO slot of a shard's eviction queue. The entry
// pointer distinguishes a live slot from a stale one left behind by
// remove or by re-insertion of the same key (lazy deletion keeps both
// remove and eviction O(1) amortized).
type orderEntry struct {
	key string
	ent *entry
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*entry
	order []orderEntry // FIFO from head; slots before head are consumed
	head  int
}

// Engine is a concurrent, memoizing what-if evaluator over a
// CostService. It decomposes every configuration evaluation into
// per-(query, projected sub-config) atoms: only the definitions whose
// patterns can serve a query (per the service's RelevantFilter, an
// over-approximation via the containment kernel) are part of the
// query's cache key and its CostService call, so evaluating base+{c}
// after base only pays optimizer calls for the queries c is relevant
// to. Relevance is decided once per (bound query, definition) pair; see
// Bound. It is safe for concurrent use.
type Engine struct {
	svc     CostService
	rel     RelevanceService // nil: collection-only projection
	workers int
	sem     chan struct{} // global per-query evaluation slots

	shards      []*cacheShard
	shardMask   uint32
	maxPerShard int

	// total is the engine's lifetime tally: every call charges it
	// alongside the tallies on the call's context.
	total Tally
	// gen counts flushes. A Bound's base memo serves an entry only while
	// the generation it was made at is current.
	gen atomic.Uint64
}

// NewEngine wraps the service in a concurrent memoizing engine.
func NewEngine(svc CostService, o Options) *Engine {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const nShards = 16 // a power of two: shard picks by hash mask
	e := &Engine{
		svc:       svc,
		workers:   workers,
		sem:       make(chan struct{}, workers),
		shards:    make([]*cacheShard, nShards),
		shardMask: uint32(nShards - 1),
	}
	if rs, ok := svc.(RelevanceService); ok {
		e.rel = rs
	}
	for i := range e.shards {
		e.shards[i] = &cacheShard{m: map[string]*entry{}}
	}
	if o.MaxEntries > 0 {
		e.maxPerShard = (o.MaxEntries + nShards - 1) / nShards
	}
	return e
}

// Workers returns the engine's evaluation parallelism.
func (e *Engine) Workers() int { return e.workers }

// Stats returns the engine's lifetime counters. Their Resilience holds
// only the panics the engine itself recovered: the middleware charges
// its counters to each call's tally and keeps its own lifetime totals.
// For the counts of one request, put a Tally on its context.
func (e *Engine) Stats() Stats { return e.total.Stats() }

// callService is the engine's single CostService call site: a panic in
// the backend (or any middleware above it) is recovered into a typed
// PanicError instead of killing the worker goroutine — and with it the
// whole process.
func (e *Engine) callService(ctx context.Context, q *querylang.Query, svcCfg []*catalog.IndexDef) (ev QueryEval, err error) {
	defer func() {
		if r := recover(); r != nil {
			charge(ctx, &e.total, &Stats{Resilience: ResilienceStats{PanicsRecovered: 1}})
			err = NewPanicError("whatif: engine CostService call", r)
		}
	}()
	return e.svc.EvaluateQuery(ctx, q, svcCfg)
}

// ConfigKey is the canonical, order-insensitive cache key of a
// configuration: its definitions' key parts, sorted and joined by
// partSep. Every field is length- or terminator-delimited so that
// distinct definitions can never concatenate to the same key.
func ConfigKey(config []*catalog.IndexDef) string {
	parts := make([]string, len(config))
	for i, d := range config {
		parts[i] = defPart(d)
	}
	sort.Strings(parts)
	return strings.Join(parts, partSep)
}

// partSep separates the definition parts of a ConfigKey.
const partSep = "\x1e"

// defPart is one definition's part of a ConfigKey.
func defPart(d *catalog.IndexDef) string {
	return strconv.Itoa(len(d.Name)) + ":" + d.Name + "|" +
		strconv.Itoa(len(d.Collection)) + ":" + d.Collection + "|" +
		d.Pattern.String() + "|" + d.Type.Short()
}

// queryKey fingerprints one query so atoms from different workloads (or
// different queries of one workload) never cross-talk — and atoms for
// the same (collection, text) are shared even across workloads, since a
// QueryEval depends on nothing else. The hashed serialization is
// length-prefixed, hence injective up to hash collisions. An atom's key
// is the query's fingerprint, keySep, then the projected configuration's
// ConfigKey.
func queryKey(q *querylang.Query) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s|%d:%s", len(q.Collection), q.Collection, len(q.Text), q.Text)
	return strconv.FormatUint(h.Sum64(), 16)
}

// keySep ends the query fingerprint in an atom key; the hex fingerprint
// never contains it.
const keySep = "\x1f"

// shard returns the key's shard. The key is hashed eight bytes at a
// time (FNV-1a's multiply over 64-bit words) and the sum is finished
// with murmur3's 64-bit mix, so the bits the mask keeps depend on every
// byte. It takes the key as a string or as the bytes of one, so a
// lookup built in a scratch buffer allocates no string.
func shard[K string | []byte](e *Engine, key K) *cacheShard {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	i := 0
	for ; i+8 <= len(key); i += 8 {
		h = (h ^ (uint64(key[i]) | uint64(key[i+1])<<8 | uint64(key[i+2])<<16 | uint64(key[i+3])<<24 |
			uint64(key[i+4])<<32 | uint64(key[i+5])<<40 | uint64(key[i+6])<<48 | uint64(key[i+7])<<56)) * prime
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return e.shards[uint32(h)&e.shardMask]
}

// atomPlan is the per-query half of an atom key, fixed at Bind time:
// the query, its index in the Bound (the bit that holds its relevance
// in every definition's memo), the fingerprint prefix and the relevance
// predicate.
type atomPlan struct {
	q        *querylang.Query
	qi       int
	prefix   string
	relevant func(*catalog.IndexDef) bool // nil: collection filter only
}

// defMemo is what a Bound decides about one definition on first sight:
// its Bound-local ID (dense, in order of first sight), its ConfigKey
// part and, per bound query, whether the query's projection keeps it
// (same collection, and accepted by the query's relevance predicate).
type defMemo struct {
	id   uint32
	part string
	rel  []uint64 // bit qi set: bound query qi keeps the definition
}

func (m *defMemo) keeps(qi int) bool { return m.rel[qi>>6]&(1<<(qi&63)) != 0 }

// Bound is a what-if evaluation scope over a fixed query list. The
// per-query fingerprints and relevance predicates are computed at Bind.
// Each definition's relevance to every bound query, its key part and
// its Bound-local ID are decided once, the first time the definition is
// evaluated or counted on the Bound, so a lookup on the hot search path
// is a bit test per definition plus a join of cached parts. That memo is
// keyed by definition pointer and lives as long as the Bound: a
// definition must not be mutated once the Bound has seen it.
//
// A Bound also memoizes, per base configuration (keyed by its
// definitions' sorted IDs), the per-query atoms evaluations over that
// base resolved, so a later EvaluateConfig or EvaluateExtensions call
// over the same base takes every query the added definition leaves
// untouched from the memo: no key build, no shard lock, no cache probe.
// A memo-served atom counts as the cache hit it replaces. The memo
// holds at most baseMemoCap bases and is dropped whole when full; only
// successful calls add to it, and an Engine.Flush retires every entry
// made before it. It holds the atoms themselves, so it can keep serving
// atoms the engine's MaxEntries cap has since evicted from the cache,
// for as long as the Bound lives.
type Bound struct {
	eng   *Engine
	atoms []atomPlan
	// defs maps each definition seen to its *defMemo. It is written once
	// per definition and read on every lookup after that, so reads take
	// no lock. learnMu serializes publishing, so IDs stay dense.
	defs    sync.Map
	learnMu sync.Mutex
	nextID  uint32

	basesMu sync.RWMutex
	bases   map[string]*baseAtoms // keyed by baseKey
}

// baseMemoCap bounds the base configurations one Bound memoizes.
const baseMemoCap = 256

// baseAtoms is one base configuration's memo entry: the engine
// generation it was made at and, per bound query, the atom resolved for
// the query's projection of the base (nil until a call resolves it)
// and that projection's size.
type baseAtoms struct {
	gen   uint64
	slots []baseSlot
}

type baseSlot struct {
	ev atomic.Pointer[QueryEval]
	n  int32
}

// Bind fixes the query list the engine evaluates configurations over.
func (e *Engine) Bind(queries []*querylang.Query) *Bound {
	b := &Bound{eng: e, atoms: make([]atomPlan, len(queries))}
	for i, q := range queries {
		b.atoms[i] = atomPlan{q: q, qi: i, prefix: queryKey(q) + keySep}
		if e.rel != nil {
			b.atoms[i].relevant = e.rel.RelevantFilter(q)
		}
	}
	return b
}

// memos appends the memo of every definition of config to dst, in
// config order, deciding the definitions the Bound has not seen yet.
func (b *Bound) memos(dst []*defMemo, config []*catalog.IndexDef) []*defMemo {
	for _, d := range config {
		m, ok := b.defs.Load(d)
		if !ok {
			dst = append(dst, b.learn(d))
			continue
		}
		dst = append(dst, m.(*defMemo))
	}
	return dst
}

// learn decides d's relevance to every bound query, renders its key
// part and gives it the next ID. Concurrent first sights of one
// definition may both decide it; the first to publish wins, and the
// decisions agree anyway.
func (b *Bound) learn(d *catalog.IndexDef) *defMemo {
	m := &defMemo{part: defPart(d), rel: make([]uint64, (len(b.atoms)+63)/64)}
	for qi := range b.atoms {
		p := &b.atoms[qi]
		if d.Collection == p.q.Collection && (p.relevant == nil || p.relevant(d)) {
			m.rel[qi>>6] |= 1 << (qi & 63)
		}
	}
	b.learnMu.Lock()
	defer b.learnMu.Unlock()
	if prev, ok := b.defs.Load(d); ok {
		return prev.(*defMemo)
	}
	m.id = b.nextID
	b.nextID++
	b.defs.Store(d, m)
	return m
}

// baseKey appends the base memo's key of a configuration, given its
// memos, to dst: the definitions' IDs, sorted, as uvarints.
func baseKey(dst []byte, memos []*defMemo) []byte {
	var buf [32]uint32
	ids := buf[:0]
	for _, m := range memos {
		ids = append(ids, m.id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// base returns the memo entry of the base configuration with the given
// key, or nil when there is none made at generation gen.
func (b *Bound) base(key []byte, gen uint64) *baseAtoms {
	b.basesMu.RLock()
	ba := b.bases[string(key)]
	b.basesMu.RUnlock()
	if ba == nil || ba.gen != gen {
		return nil
	}
	return ba
}

// MemoizedBases reports how many base configurations the Bound's base
// memo holds.
func (b *Bound) MemoizedBases() int {
	b.basesMu.RLock()
	defer b.basesMu.RUnlock()
	return len(b.bases)
}

// remember records the base atoms a successful call resolved (the
// queries atoms[i] with keyed[i] set, whose atom is baseQ[i]) in ba, the
// base's memo entry, or in a new entry when ba is nil; scratch holds the
// new entry's key while it is looked up. Nothing is recorded when the
// engine has been flushed since generation gen.
func (b *Bound) remember(ba *baseAtoms, scratch []byte, gen uint64, baseMemos []*defMemo, atoms []atomPlan, keyed []bool, baseQ []*QueryEval) {
	if !slices.Contains(keyed, true) || b.eng.gen.Load() != gen {
		return
	}
	if ba == nil {
		key := baseKey(scratch[:0], baseMemos)
		ba = &baseAtoms{gen: gen, slots: make([]baseSlot, len(b.atoms))}
		for _, m := range baseMemos {
			for qi := range ba.slots {
				if m.keeps(qi) {
					ba.slots[qi].n++
				}
			}
		}
		b.basesMu.Lock()
		if cur := b.bases[string(key)]; cur != nil && cur.gen == gen {
			ba = cur
		} else {
			if len(b.bases) >= baseMemoCap || b.bases == nil {
				b.bases = make(map[string]*baseAtoms)
			}
			b.bases[string(key)] = ba
		}
		b.basesMu.Unlock()
	}
	for i, k := range keyed {
		if k {
			ba.slots[atoms[i].qi].ev.CompareAndSwap(nil, baseQ[i])
		}
	}
}

// RelevantCounts returns, per bound query, the size of the
// configuration's projected sub-config: how many definitions can serve
// the query at all. No CostService calls.
func (b *Bound) RelevantCounts(config []*catalog.IndexDef) []int {
	out := make([]int, len(b.atoms))
	for _, m := range b.memos(nil, config) {
		for qi := range out {
			if m.keeps(qi) {
				out[qi]++
			}
		}
	}
	return out
}

// EvaluateConfig costs every bound query under the configuration; see
// Engine.EvaluateConfig.
func (b *Bound) EvaluateConfig(ctx context.Context, config []*catalog.IndexDef) (*ConfigEval, error) {
	evs, err := b.evaluateBatch(ctx, b.atoms, config, nil)
	if err != nil {
		return nil, err
	}
	return evs[0], nil
}

// EvaluateExtensions costs every bound query under base+{d} for each d
// of adds, as one unit; result i is the evaluation of base+{adds[i]}.
// Adding d changes only the queries d is relevant to, so a query's
// base projection is resolved at most once per call, and an extension's
// atom is keyed only for the queries its definition can serve; every
// other query shares the base's atom. A base atom an earlier successful
// call over the same base resolved comes from the Bound's base memo
// without a lookup, so lazy greedy's single-candidate refreshes of one
// configuration key only the candidate's own queries after the first.
// All keys are registered (or joined) in a single pass, identical atoms
// inside the call are scheduled once, and the missing atoms are drained
// by a fixed pool of workers pulling from one flat task list. Values
// match calling EvaluateConfig per configuration. Lazy-greedy
// re-evaluation bursts and the standalone benefit pass (an empty base)
// are the intended callers.
func (b *Bound) EvaluateExtensions(ctx context.Context, base, adds []*catalog.IndexDef) ([]*ConfigEval, error) {
	if len(adds) == 0 {
		return nil, nil
	}
	return b.evaluateBatch(ctx, b.atoms, base, adds)
}

// EvaluateConfig costs every query under the configuration, memoized
// per (query, projected sub-config) atom. Concurrent calls needing the
// same atom share one evaluation; distinct atoms share the engine's
// worker pool. The returned QueryEval contents are shared with the
// cache and must not be mutated.
func (e *Engine) EvaluateConfig(ctx context.Context, queries []*querylang.Query, config []*catalog.IndexDef) (*ConfigEval, error) {
	return e.Bind(queries).EvaluateConfig(ctx, config)
}

// appendKey appends the atom key of the query's projection of a
// configuration to dst: the query prefix plus the kept definitions'
// parts joined by partSep, given the configuration's memos sorted by
// part, and add's part merged into that order when add is not nil.
// That is byte-identical to prefix + ConfigKey(projected sub-config).
// It also returns the projected size. add must be kept by the query.
func (p *atomPlan) appendKey(dst []byte, sorted []*defMemo, add *defMemo) ([]byte, int) {
	dst = append(dst, p.prefix...)
	n := 0
	for _, m := range sorted {
		if add != nil && m.part > add.part {
			dst, n = appendPart(dst, n, add.part)
			add = nil
		}
		if m.keeps(p.qi) {
			dst, n = appendPart(dst, n, m.part)
		}
	}
	if add != nil {
		dst, n = appendPart(dst, n, add.part)
	}
	return dst, n
}

// appendPart appends the n+1st part of a key to dst.
func appendPart(dst []byte, n int, part string) ([]byte, int) {
	if n > 0 {
		dst = append(dst, partSep...)
	}
	return append(dst, part...), n + 1
}

// project returns the sub-config the atom's query is costed against:
// the definitions of base (whose memos are parallel to it) that the
// query keeps, in base order, followed by add when it is not nil; base
// itself when that is all of it. n is the projected size.
func (p *atomPlan) project(base []*catalog.IndexDef, memos []*defMemo, add *catalog.IndexDef, n int) []*catalog.IndexDef {
	if add == nil && n == len(base) {
		return base
	}
	out := make([]*catalog.IndexDef, 0, n)
	for i, d := range base {
		if memos[i].keeps(p.qi) {
			out = append(out, d)
		}
	}
	if add != nil {
		out = append(out, add)
	}
	return out
}

// ownedAtom is one atom this batch owns the evaluation of: its
// singleflight entry, the result slot it fills, and the value under
// construction.
type ownedAtom struct {
	key    string
	ent    *entry
	i      int         // position in the batch's atoms
	dst    **QueryEval // the result slot the value fills
	svcCfg []*catalog.IndexDef
	val    QueryEval
	done   bool
	called bool  // the CostService was called for this atom
	err    error // this atom's failure, under the batch's error mutex
}

// joinedAtom is one atom the batch found in flight (or failed) and waits
// for once its owned work is published.
type joinedAtom struct {
	ent *entry
	i   int         // position in the batch's atoms
	ci  int         // an extension needing the atom; retries re-run it
	n   int         // the atom's projected size, charged on a hit
	dst **QueryEval // the result slot the value fills
}

// evaluateBatch is the engine's one evaluation path. It prices
// base+{d} for every d of adds, or base alone when adds is nil, over
// atoms (b's whole query list, or one atom of it on the retry path —
// each atom finds its relevance bits by its own index, not its position
// in atoms). A registration pass walks every (configuration, query)
// pair: a query the added definition is relevant to keys its extension
// atom, any other query shares its base atom, which is resolved the
// first time a configuration needs it: from the base memo when an
// earlier call recorded it, else keyed. Each keyed atom is either claimed
// (first occurrence anywhere — in the cache, in flight, or earlier in
// this very batch), read at once from a completed cached value, or
// recorded as a join on an entry still in flight. The owned atoms are
// drained by a fixed worker pool over one flat task list, each worker
// holding one engine semaphore slot for its lifetime; owned entries are
// published (completed values cached, failed ones evicted so waiters
// retry instead of rejoining a dead entry) before any join is waited
// on, so in-batch duplicates can never deadlock. The call's lookups and
// evaluations are gathered in d and charged once, on every return path.
// Only a successful call records its base atoms in the memo.
func (b *Bound) evaluateBatch(ctx context.Context, atoms []atomPlan, base, adds []*catalog.IndexDef) ([]*ConfigEval, error) {
	e := b.eng
	var d Stats
	defer func() { charge(ctx, &e.total, &d) }()
	nc, cfgLen := len(adds), len(base)+1
	if adds == nil {
		nc, cfgLen = 1, len(base)
	}
	// One backing array each for the batch's results and memos, so a
	// warm batch allocates a handful of objects however many atoms it
	// looks up. baseQ holds each query's base atom (a lone
	// configuration's base atoms go straight into its result); keyed
	// marks the ones resolved. The memos are the base's and the
	// additions', in argument order, then a copy of the base's sorted by
	// key part.
	out := make([]*ConfigEval, nc)
	evs := make([]ConfigEval, nc)
	nq := nc
	if nc > 1 {
		nq++
	}
	queries := make([]*QueryEval, nq*len(atoms))
	for i := range out {
		lo, hi := i*len(atoms), (i+1)*len(atoms)
		evs[i] = ConfigEval{Queries: queries[lo:hi:hi]}
		out[i] = &evs[i]
	}
	baseQ := queries[(nq-1)*len(atoms):]
	keyed := make([]bool, len(atoms))
	memos := b.memos(make([]*defMemo, 0, 2*len(base)+len(adds)), base)
	memos = b.memos(memos, adds)
	memos = append(memos, memos[:len(base)]...)
	baseMemos, addMemos, sorted := memos[:len(base)], memos[len(base):len(base)+len(adds)], memos[len(base)+len(adds):]
	slices.SortFunc(sorted, func(x, y *defMemo) int { return strings.Compare(x.part, y.part) })

	var own []*ownedAtom
	var joins []joinedAtom
	// served tallies the hits on completed entries and memo-served base
	// atoms, which are read at once instead of joined; they count only
	// if the batch succeeds, like the hits of joins.
	var served Stats
	key := make([]byte, 0, 512) // scratch: only an owned atom's key becomes a string
	gen := e.gen.Load()
	memo := b.base(baseKey(key, baseMemos), gen)
	for ci := 0; ci < nc; ci++ {
		var am *defMemo
		var add *catalog.IndexDef
		if adds != nil {
			am, add = addMemos[ci], adds[ci]
		}
		for i := range atoms {
			p := &atoms[i]
			dst, km, kd := &out[ci].Queries[i], am, add
			if am == nil || !am.keeps(p.qi) {
				if keyed[i] {
					continue // filled from baseQ once the batch resolves
				}
				keyed[i] = true
				if memo != nil {
					if ev := memo.slots[p.qi].ev.Load(); ev != nil {
						served.Hits++
						n := int(memo.slots[p.qi].n)
						served.RelevantDefs += int64(n)
						if n < cfgLen {
							served.ProjectedHits++
						}
						baseQ[i] = ev
						continue
					}
				}
				dst, km, kd = &baseQ[i], nil, nil
			}
			var n int
			key, n = p.appendKey(key[:0], sorted, km)
			sh := shard(e, key)
			sh.mu.Lock()
			if ent, ok := sh.m[string(key)]; ok {
				sh.mu.Unlock()
				if completed(ent) {
					served.Hits++
					served.RelevantDefs += int64(n)
					if n < cfgLen {
						served.ProjectedHits++
					}
					*dst = &ent.val
				} else {
					// In flight (possibly owned by this very batch, a
					// duplicate atom) or failed: wait after the owned
					// work completes.
					joins = append(joins, joinedAtom{ent: ent, i: i, ci: ci, n: n, dst: dst})
				}
			} else {
				ent := &entry{ready: make(chan struct{})}
				k := string(key)
				sh.insert(k, ent, e.maxPerShard)
				sh.mu.Unlock()
				d.Misses++
				d.RelevantDefs += int64(n)
				own = append(own, &ownedAtom{key: k, ent: ent, i: i, dst: dst, svcCfg: p.project(base, baseMemos, kd, n)})
			}
		}
	}

	// Drain the owned atoms through a fixed worker pool pulling an
	// atomic cursor over the flat task list.
	var firstErr error
	if len(own) > 0 {
		workers := e.workers
		if workers > len(own) {
			workers = len(own)
		}
		bctx, cancel := context.WithCancel(ctx)
		var (
			next  atomic.Int64
			wg    sync.WaitGroup
			errMu sync.Mutex
		)
		fail := func(o *ownedAtom, err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			if o != nil && o.err == nil {
				o.err = err
			}
			errMu.Unlock()
			cancel()
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				select {
				case e.sem <- struct{}{}:
				case <-bctx.Done():
					fail(nil, bctx.Err())
					return
				}
				defer func() { <-e.sem }()
				for {
					i := next.Add(1) - 1
					if int(i) >= len(own) {
						return
					}
					if err := bctx.Err(); err != nil {
						fail(nil, err)
						return
					}
					o := own[i]
					o.called = true
					ev, err := e.callService(bctx, atoms[o.i].q, o.svcCfg)
					if err != nil {
						fail(o, err)
						return
					}
					o.val = ev
					o.done = true
				}
			}()
		}
		wg.Wait()
		cancel()
	}

	// Publish every owned entry exactly once before touching the joins:
	// completed values are cached for everyone, failed or cut-off ones
	// are evicted so waiters retry instead of rejoining a dead entry.
	for _, o := range own {
		if o.called {
			d.Evaluations++
		}
		if o.err == nil && o.done {
			o.ent.val = o.val
			close(o.ent.ready)
			*o.dst = &o.ent.val
			continue
		}
		err := o.err
		if err == nil {
			err = firstErr // cancelled before this atom's task ran
		}
		if err == nil {
			err = context.Canceled
		}
		sh := shard(e, o.key)
		sh.mu.Lock()
		if sh.m[o.key] == o.ent {
			sh.remove(o.key)
		}
		sh.mu.Unlock()
		o.ent.err = err
		close(o.ent.ready)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if served.Hits > 0 {
		// A batch that reads cached values still honours cancellation,
		// as a wait on a join would.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.add(&served)
	}

	for _, j := range joins {
		select {
		case <-j.ent.ready:
			if j.ent.err != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// Owner died on its own context; re-run this one atom
				// with ours (the dead entry is already evicted, so the
				// retry claims the key or joins a newer owner).
				if errors.Is(j.ent.err, context.Canceled) || errors.Is(j.ent.err, context.DeadlineExceeded) {
					var radds []*catalog.IndexDef
					if adds != nil {
						radds = adds[j.ci : j.ci+1]
					}
					retry, err := b.evaluateBatch(ctx, atoms[j.i:j.i+1], base, radds)
					if err != nil {
						return nil, err
					}
					*j.dst = retry[0].Queries[0]
					continue
				}
				return nil, j.ent.err
			}
			// Count the hit only once a shared value actually arrived,
			// so error churn does not inflate the rate.
			d.Hits++
			d.RelevantDefs += int64(j.n)
			if j.n < cfgLen {
				d.ProjectedHits++
			}
			*j.dst = &j.ent.val
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b.remember(memo, key, gen, baseMemos, atoms, keyed, baseQ)
	// Every query an extension leaves untouched shares the base's atom.
	for _, ev := range out {
		for i, q := range ev.Queries {
			if q == nil {
				ev.Queries[i] = baseQ[i]
			}
		}
	}
	return out, nil
}

// completed reports whether ent holds a value: its evaluation has
// finished and did not fail. The receive orders the read of ent.val
// after its owner's write.
func completed(ent *entry) bool {
	select {
	case <-ent.ready:
		return ent.err == nil
	default:
		return false
	}
}

// insert adds the entry under key, evicting the oldest completed entry
// when the shard is full. In-flight entries are never evicted (the cap
// may be exceeded briefly while the oldest entries are still computing).
func (s *cacheShard) insert(key string, ent *entry, max int) {
	for max > 0 && len(s.m) >= max {
		if !s.evictOldest() {
			break // every live entry is still computing
		}
	}
	s.m[key] = ent
	s.order = append(s.order, orderEntry{key: key, ent: ent})
	// Compact consumed head space occasionally so the queue's memory
	// stays proportional to the live entry count.
	if s.head > 32 && s.head > len(s.order)/2 {
		s.order = append(s.order[:0:0], s.order[s.head:]...)
		s.head = 0
	}
}

// evictOldest drops the oldest live, completed entry and reports whether
// one was dropped. Stale head slots are consumed as they are passed;
// in-flight entries are never evicted, but entries behind an in-flight
// head are still eligible, so an overshoot caused by a slow evaluation
// at the head heals instead of persisting.
func (s *cacheShard) evictOldest() bool {
	for s.head < len(s.order) {
		oe := s.order[s.head]
		if cur, ok := s.m[oe.key]; !ok || cur != oe.ent {
			s.head++ // stale: removed, flushed, or re-inserted
			continue
		}
		break
	}
	for i := s.head; i < len(s.order); i++ {
		oe := s.order[i]
		if cur, ok := s.m[oe.key]; !ok || cur != oe.ent {
			continue
		}
		select {
		case <-oe.ent.ready:
			delete(s.m, oe.key)
			if i == s.head {
				s.head++
			}
			return true
		default:
			// Still computing; try the next oldest live entry.
		}
	}
	return false
}

// remove drops a key (failed evaluation); its queue slot goes stale and
// is skipped when the head reaches it.
func (s *cacheShard) remove(key string) {
	delete(s.m, key)
}

// Flush drops every cached atom (counters are kept) and retires every
// Bound's base memo entries. Callers must flush after the underlying
// data or statistics change: cached costs are keyed by query text and
// index definitions only, not by catalog version. In-flight evaluations
// are orphaned — already-joined waiters still receive their result, but
// it is not cached, and later requests re-evaluate against the new
// state.
func (e *Engine) Flush() {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.m = map[string]*entry{}
		sh.order = nil
		sh.head = 0
		sh.mu.Unlock()
	}
	// Only after the shards are empty: a call that reads the new
	// generation can no longer find an atom cached before the flush.
	e.gen.Add(1)
}

// Len reports the number of cached per-(query, sub-config) atoms.
func (e *Engine) Len() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
