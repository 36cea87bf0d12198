package pattern

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// scanUsed counts a pair cache's occupied slots the slow way: the
// reference the O(1) used counter must equal.
func scanUsed(c *pairCache) int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != 0 {
			n++
		}
	}
	return n
}

// TestPairCacheSizeCounter checks that a pair cache's size counter
// equals a slot scan after concurrent puts that collide on slots and
// overwrite each other, and that the kernel's reported sizes equal a
// scan of its live caches before and after ResetCaches.
func TestPairCacheSizeCounter(t *testing.T) {
	c := newPairCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				// A small ID range forces repeated puts into the same
				// slots, with both results.
				c.put(ID(rng.Intn(300)), ID(rng.Intn(300)), rng.Intn(2) == 0)
			}
		}(int64(w))
	}
	wg.Wait()
	if got, want := c.len(), scanUsed(c); got != want || want == 0 {
		t.Fatalf("pair cache size = %d, slot scan = %d", got, want)
	}

	checkKernel := func(label string) {
		t.Helper()
		k, s := defaultKernel.Load(), Stats()
		if got, want := s.Contains.Size, scanUsed(k.contains); got != want {
			t.Errorf("%s: contains size = %d, slot scan = %d", label, got, want)
		}
		if got, want := s.Overlaps.Size, scanUsed(k.overlaps); got != want {
			t.Errorf("%s: overlaps size = %d, slot scan = %d", label, got, want)
		}
	}
	ResetCaches()
	checkKernel("fresh kernel")
	pats := make([]Pattern, 40)
	rng := rand.New(rand.NewSource(3))
	for i := range pats {
		pats[i] = MustParse(fmt.Sprintf("/a/%c//%c", 'b'+rng.Intn(4), 'b'+rng.Intn(4)))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pats {
				for _, q := range pats {
					ContainsCached(p, q)
					OverlapsCached(p, q)
				}
			}
		}()
	}
	wg.Wait()
	checkKernel("after concurrent probes")
	if Stats().Contains.Size == 0 {
		t.Error("probes left the contains cache empty")
	}
	ResetCaches()
	checkKernel("after ResetCaches")
	if s := Stats(); s.Contains.Size != 0 || s.Overlaps.Size != 0 {
		t.Errorf("sizes after ResetCaches = %d/%d, want 0/0", s.Contains.Size, s.Overlaps.Size)
	}
}

// TestConcurrentFirstProbesCountOnce checks that each new pair counts
// one miss however many goroutines probe it first at once: G goroutines,
// released together, probe the same K new pairs, and every probe after
// the pair's first decision counts as a hit, whether it read the cached
// decision or computed it again and found it already stored.
func TestConcurrentFirstProbesCountOnce(t *testing.T) {
	const G, K, rounds = 8, 64, 4
	ps, qs := make([]Pattern, K), make([]Pattern, K)
	for i := range ps {
		ps[i] = MustParse(fmt.Sprintf("//a%d//*//b/*//c", i))
		qs[i] = MustParse(fmt.Sprintf("/r/a%d/x/y/b/z/w/c", i))
	}
	for r := 0; r < rounds; r++ {
		ResetCaches()
		// Intern up front, so the IDs and slots do not depend on which
		// goroutine runs first, and check that no two pairs share a slot.
		slots := map[uint64]bool{}
		for i := range ps {
			idx, _ := pairSlot(Interned(ps[i]), Interned(qs[i]))
			slots[idx] = true
		}
		if len(slots) != K {
			t.Fatalf("the %d pairs share slots: %d distinct", K, len(slots))
		}
		before := Stats()
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < G; g++ {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				for i := range ps {
					ContainsCached(ps[i], qs[i])
					OverlapsCached(ps[i], qs[i])
				}
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		d := Stats().Sub(before)
		for _, c := range []struct {
			op string
			s  CacheStats
		}{{"contains", d.Contains}, {"overlaps", d.Overlaps}} {
			if c.s.Misses != K || c.s.Hits != (G-1)*K {
				t.Errorf("round %d: %s counted %d misses and %d hits, want %d and %d",
					r, c.op, c.s.Misses, c.s.Hits, K, (G-1)*K)
			}
		}
	}
}
