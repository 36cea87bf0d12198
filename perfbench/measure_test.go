package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 400; n++ {
		k := tailIndex(n, 0.9, tailBeyond)
		if k < 0 || k >= n {
			t.Fatalf("n=%d: index %d out of range", n, k)
		}
		if n > tailBeyond && n-1-k < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond index %d", n, n-1-k, k)
		}
		if n >= 100 {
			if want := int(math.Ceil(0.9*float64(n))) - 1; k != want {
				t.Errorf("n=%d: index %d, want nearest-rank %d", n, k, want)
			}
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100, 90}, // plain p90, samples 91..100 beyond
		{200, 180},
		{50, 40}, // lowered so that 41..50 lie beyond
		{11, 1},
		{5, 1},
		{0, 0},
	} {
		if got := tail(seq(c.n), 0.9); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTallyCountsEachFailedOpOnce(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Fatal("ratio before any op must be 0")
	}
	for _, reason := range []string{"", "create: HTTP 500", "", "degraded response", "create: HTTP 500"} {
		tl.record(reason)
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
	if got := tl.ratio(); got != 0.6 {
		t.Errorf("fail ratio %v, want 0.6", got)
	}
	if tl.reasons["create: HTTP 500"] != 2 || tl.reasons["degraded response"] != 1 {
		t.Errorf("reasons %v", tl.reasons)
	}
}

func TestTallyConcurrentClients(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				reason := ""
				if i%10 == 0 {
					reason = "check failed"
				}
				tl.record(reason)
			}
		}()
	}
	wg.Wait()
	if tl.attempted != 1000 || tl.failed != 100 || tl.ratio() != 0.1 {
		t.Errorf("attempted %d failed %d ratio %v", tl.attempted, tl.failed, tl.ratio())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a: union 10..60
		{Name: "c", Parent: 0, Start: 90, End: 120},  // runs past the parent: clipped to 90..100
		{Name: "a.1", Parent: 1, Start: 15, End: 25}, // grandchild: a's, not parent's
	}
	self := selfTimes(spans)
	want := []time.Duration{40, 20, 30, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {0, 10}}, 10}, // identical
		{[][2]int64{{0, 50}, {10, 20}, {30, 40}}, 50}, // nested
		{[][2]int64{{40, 60}, {0, 10}}, 30},           // unsorted, disjoint
		{[][2]int64{{-10, 5}, {95, 200}}, 10},         // clipped both ends
	} {
		if got := covered(0, 100, c.ivs); got != c.want {
			t.Errorf("covered(0,100,%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestEvalWaitCountsConcurrentEvaluationsOnce(t *testing.T) {
	spans := []span{
		{Name: "search.race", Parent: -1, Start: 0, End: 100},
		{Name: "whatif.eval", Parent: 0, Start: 0, End: 30},
		{Name: "whatif.eval", Parent: 0, Start: 20, End: 50}, // a concurrent member
		{Name: "optimizer.call", Parent: 1, Start: 5, End: 15},
		{Name: "optimizer.call", Parent: 2, Start: 10, End: 35},
		{Name: "whatif.eval", Parent: -1, Start: 60, End: 70}, // another search's
	}
	wait, self := evalWait(spans, []int{0})
	if wait != 50 || self != 20 {
		t.Errorf("wait %d self %d, want 50 and 20", wait, self)
	}
	if got := solveMS(spans, []int{0}); got != ms(50) {
		t.Errorf("solve %v ms, want %v", got, ms(50))
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("op", 0, -1)
	r.end(id)
	r.add("x", 0, id, time.Now(), time.Millisecond)
	if id != -1 || r.snapshot() != nil {
		t.Error("nil recorder must be a no-op")
	}
}
