package whatif

import (
	"sort"
	"strings"
)

// CachedAtom is one memoized cache entry in exportable form: the
// engine's (query fingerprint, projected sub-config) key and the
// evaluation cached under it. It is the unit the snapshot layer
// persists so a restarted process can warm-start the cache.
type CachedAtom struct {
	Key string
	Val QueryEval
}

// ExportAtoms returns the completed cached atoms of the bound queries
// (every key an evaluation over this Bound makes, whichever Bound made
// it), sorted by key so exports are deterministic: what a session
// snapshot carries out of the shared engine cache. In-flight and failed
// entries are skipped. The returned QueryEval contents are shared with
// the cache and must not be mutated.
func (b *Bound) ExportAtoms() []CachedAtom {
	prefixes := make(map[string]bool, len(b.atoms))
	for i := range b.atoms {
		prefixes[b.atoms[i].prefix] = true
	}
	var out []CachedAtom
	for _, sh := range b.eng.shards {
		sh.mu.Lock()
		for k, ent := range sh.m {
			if i := strings.Index(k, keySep); i < 0 || !prefixes[k[:i+len(keySep)]] {
				continue
			}
			select {
			case <-ent.ready:
				if ent.err == nil {
					out = append(out, CachedAtom{Key: k, Val: ent.val})
				}
			default:
				// Still computing; a snapshot only carries settled state.
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ImportAtoms pre-populates the cache with previously exported atoms,
// skipping keys already present (live entries always win over restored
// ones), and returns how many were installed. Imported entries are
// complete immediately and count as hits on first use; the shard cap
// applies as usual, evicting the oldest completed entries when a shard
// overflows.
func (e *Engine) ImportAtoms(atoms []CachedAtom) int {
	n := 0
	for _, a := range atoms {
		sh := shard(e, a.Key)
		sh.mu.Lock()
		if _, ok := sh.m[a.Key]; !ok {
			ent := &entry{ready: make(chan struct{}), val: a.Val}
			close(ent.ready)
			sh.insert(a.Key, ent, e.maxPerShard)
			n++
		}
		sh.mu.Unlock()
	}
	return n
}
