package whatif

import "sort"

// CachedAtom is one memoized cache entry in exportable form: the
// engine's (query fingerprint, projected sub-config) key and the
// evaluation cached under it. It is the unit the snapshot layer
// persists so a restarted process can warm-start the cache.
type CachedAtom struct {
	Key string
	Val QueryEval
}

// ExportAtoms returns every completed cached atom whose key keep
// accepts (nil keeps all), sorted by key so exports are deterministic.
// In-flight and failed entries are skipped. The returned QueryEval
// contents are shared with the cache and must not be mutated.
func (e *Engine) ExportAtoms(keep func(key string) bool) []CachedAtom {
	var out []CachedAtom
	for _, sh := range e.shards {
		sh.mu.Lock()
		for k, ent := range sh.m {
			select {
			case <-ent.ready:
				if ent.err == nil && (keep == nil || keep(k)) {
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

// KeyPrefixes returns the bound queries' atom-key prefixes (fingerprint
// plus separator, deduplicated). Every cache key of an evaluation over
// this Bound starts with one of them — the filter a session snapshot
// uses to export only its own atoms from the shared engine cache.
func (b *Bound) KeyPrefixes() []string {
	seen := make(map[string]bool, len(b.atoms))
	out := make([]string, 0, len(b.atoms))
	for i := range b.atoms {
		if p := b.atoms[i].prefix; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
