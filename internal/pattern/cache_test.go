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
