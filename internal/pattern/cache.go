package pattern

import (
	"fmt"
	"sync/atomic"
)

// The containment kernel memoizes Contains and Overlaps per interned
// pattern pair. Pattern variety in a session is bounded (workload legs,
// candidates, index definitions), while the advisor's DAG construction
// and the optimizer's index matching repeat the same pairs constantly.
// Unlike the sync.Map the kernel replaced, the caches are bounded: each
// is a fixed-capacity direct-mapped table whose entries are displaced by
// hash collision, and lookups build no string keys — the key is the
// packed (ID, ID) pair and a hit is a single atomic load.

// pairCacheShift sizes each pair cache: 2^shift slots (512 KiB per
// operation). A displaced pair recomputes in a microsecond-scale NFA
// search, so collision eviction is plenty.
const pairCacheShift = 16

// pairCacheCapacity is the slot count of each pair cache.
const pairCacheCapacity = 1 << pairCacheShift

// pairCache memoizes boolean results keyed by packed (ID, ID) pairs in
// a lock-free direct-mapped table. Each slot packs the two 31-bit IDs,
// a presence bit, and the result into one word: an interner cannot
// plausibly issue 2^31 IDs (each costs a compiled matcher), so the
// packing is injective, and slot 0 is distinguishable because present
// entries always carry the presence bit.
type pairCache struct {
	slots []atomic.Uint64
	// used counts the occupied slots. A slot never returns to 0 once
	// filled, so counting the puts that found it empty keeps Size exact
	// without scanning the table.
	used atomic.Int64
}

func newPairCache() *pairCache {
	return &pairCache{slots: make([]atomic.Uint64, pairCacheCapacity)}
}

func pairSlot(p, q ID) (idx uint64, enc uint64) {
	enc = uint64(uint32(p))<<33 | uint64(uint32(q))<<2 | 1<<1
	// Fibonacci hashing spreads the dense low ID bits across the table.
	idx = (pairKey(p, q) * 0x9E3779B97F4A7C15) >> (64 - pairCacheShift)
	return idx, enc
}

func (c *pairCache) get(p, q ID) (bool, bool) {
	idx, enc := pairSlot(p, q)
	e := c.slots[idx].Load()
	if e&^1 != enc {
		return false, false
	}
	return e&1 != 0, true
}

// put stores the decision v for (p, q) and reports whether the slot
// already held it: another caller decided the same pair first.
func (c *pairCache) put(p, q ID, v bool) bool {
	idx, enc := pairSlot(p, q)
	if v {
		enc |= 1
	}
	old := c.slots[idx].Swap(enc)
	if old == 0 {
		c.used.Add(1)
	}
	return old == enc
}

func (c *pairCache) len() int { return int(c.used.Load()) }

// kernel bundles the interner with the pair caches its IDs key. Reset
// swaps the whole bundle atomically, so a concurrent caller racing a
// reset fills the old caches with old IDs (harmlessly unreachable)
// rather than poisoning the fresh ones with stale IDs.
type kernel struct {
	in                 *Interner
	contains, overlaps *pairCache
}

var defaultKernel atomic.Pointer[kernel]

// Monotonic cache counters; they survive ResetCaches like the what-if
// engine's counters survive Flush.
var (
	containsHits, containsMisses atomic.Int64
	overlapsHits, overlapsMisses atomic.Int64
)

func init() {
	defaultKernel.Store(&kernel{in: NewInterner(), contains: newPairCache(), overlaps: newPairCache()})
}

// maxInternedPatterns bounds the process-wide interner. Crossing it
// swaps in a fresh kernel — matchers and cached decisions rebuild on
// demand — so services that churn through unbounded pattern variety
// stay bounded even without an explicit ResetCaches call. The advisor
// itself never gets close: a full experiment run interns a few hundred
// patterns.
const maxInternedPatterns = 1 << 17

// currentKernel returns the live kernel, resetting it first if the
// interner has outgrown its bound.
func currentKernel() *kernel {
	k := defaultKernel.Load()
	if k.in.Len() >= maxInternedPatterns {
		nk := &kernel{in: NewInterner(), contains: newPairCache(), overlaps: newPairCache()}
		if defaultKernel.CompareAndSwap(k, nk) {
			return nk
		}
		return defaultKernel.Load()
	}
	return k
}

// InternedMatcher returns the process-wide cached matcher for p. Hot
// paths that used to call Compile per operation (optimizer matching,
// executor residual checks, stats cardinality, update maintenance)
// should use this instead.
func InternedMatcher(p Pattern) *Matcher {
	return currentKernel().in.Matcher(p)
}

// Interned returns p's ID in the process-wide interner.
func Interned(p Pattern) ID {
	return currentKernel().in.Intern(p)
}

// pairKey packs two interner IDs into one cache key.
func pairKey(p, q ID) uint64 {
	return uint64(uint32(p))<<32 | uint64(uint32(q))
}

// ContainsCached is Contains memoized by interned pattern pair. The hot
// path — both patterns already interned, pair already decided — is two
// lock-free intern lookups plus one atomic table load, and allocates
// nothing. A pair decided by concurrent first probes counts one miss:
// the probes that find their decision already stored count as hits.
func ContainsCached(p, q Pattern) bool {
	if p.IsZero() || q.IsZero() {
		return false
	}
	k := currentKernel()
	pid, mp := k.in.InternMatcher(p)
	qid, mq := k.in.InternMatcher(q)
	if v, ok := k.contains.get(pid, qid); ok {
		containsHits.Add(1)
		return v
	}
	r := mp.Contains(mq)
	countProbe(k.contains.put(pid, qid, r), &containsHits, &containsMisses)
	return r
}

// OverlapsCached is Overlaps memoized by interned pattern pair, counted
// as ContainsCached is; the update-cost path calls it once per (update,
// candidate) pair on every configuration evaluation.
func OverlapsCached(p, q Pattern) bool {
	if p.IsZero() || q.IsZero() {
		return false
	}
	k := currentKernel()
	pid := k.in.Intern(p)
	qid := k.in.Intern(q)
	if v, ok := k.overlaps.get(pid, qid); ok {
		overlapsHits.Add(1)
		return v
	}
	r := Overlaps(p, q)
	countProbe(k.overlaps.put(pid, qid, r), &overlapsHits, &overlapsMisses)
	return r
}

// countProbe counts a probe that computed its decision: a hit when the
// cache already held it, a miss otherwise.
func countProbe(held bool, hits, misses *atomic.Int64) {
	if held {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
}

// CacheStats are one pair cache's monotonic counters and current size.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// HitRate is hits / (hits + misses), or 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Sub returns the hit/miss deltas since an earlier snapshot; Size and
// Capacity describe the later snapshot (they are gauges, not counters).
func (s CacheStats) Sub(earlier CacheStats) CacheStats {
	return CacheStats{
		Hits:     s.Hits - earlier.Hits,
		Misses:   s.Misses - earlier.Misses,
		Size:     s.Size,
		Capacity: s.Capacity,
	}
}

// KernelStats snapshot the containment kernel's counters: interned
// pattern count plus per-operation cache stats, surfaced the same way
// the what-if engine surfaces its configuration cache.
type KernelStats struct {
	Interned int        `json:"interned"`
	Contains CacheStats `json:"contains"`
	Overlaps CacheStats `json:"overlaps"`
}

// String renders the snapshot as one line.
func (s KernelStats) String() string {
	return fmt.Sprintf("kernel: %d patterns interned; contains %d/%d hit (%.0f%%), overlaps %d/%d hit (%.0f%%)",
		s.Interned,
		s.Contains.Hits, s.Contains.Hits+s.Contains.Misses, 100*s.Contains.HitRate(),
		s.Overlaps.Hits, s.Overlaps.Hits+s.Overlaps.Misses, 100*s.Overlaps.HitRate())
}

// Sub returns the counter deltas since an earlier snapshot: patterns
// interned and cache hits/misses accrued in between (a per-run window
// over the process-wide kernel counters).
func (s KernelStats) Sub(earlier KernelStats) KernelStats {
	return KernelStats{
		Interned: s.Interned - earlier.Interned,
		Contains: s.Contains.Sub(earlier.Contains),
		Overlaps: s.Overlaps.Sub(earlier.Overlaps),
	}
}

// HitRate is the combined contains+overlaps hit rate, or 0 when nothing
// was looked up.
func (s KernelStats) HitRate() float64 {
	hits := s.Contains.Hits + s.Overlaps.Hits
	if t := hits + s.Contains.Misses + s.Overlaps.Misses; t > 0 {
		return float64(hits) / float64(t)
	}
	return 0
}

// Stats returns a snapshot of the default kernel's counters.
func Stats() KernelStats {
	k := defaultKernel.Load()
	return KernelStats{
		Interned: k.in.Len(),
		Contains: CacheStats{
			Hits: containsHits.Load(), Misses: containsMisses.Load(),
			Size: k.contains.len(), Capacity: pairCacheCapacity,
		},
		Overlaps: CacheStats{
			Hits: overlapsHits.Load(), Misses: overlapsMisses.Load(),
			Size: k.overlaps.len(), Capacity: pairCacheCapacity,
		},
	}
}

// ResetCaches drops the process-wide interner and both pair caches
// (counters are kept). Long-running services that churn through
// unbounded pattern variety — or tests that need a cold kernel — call
// this to release every cached matcher and decision.
func ResetCaches() {
	defaultKernel.Store(&kernel{in: NewInterner(), contains: newPairCache(), overlaps: newPairCache()})
}
