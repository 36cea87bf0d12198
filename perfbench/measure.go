package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailIndex is the 0-based index into n sorted samples of the q-quantile
// by nearest rank, lowered where needed so that at least `beyond` samples
// lie above it. With n >= beyond/(1-q) samples (100 for p90) it is the
// plain nearest-rank percentile; with fewer it reports the highest rank
// that still has `beyond` samples past it.
func tailIndex(n int, q float64, beyond int) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k > n-1-beyond {
		k = n - 1 - beyond
	}
	if k < 0 {
		k = 0
	}
	return k
}

// tail returns the q-quantile of xs under the tailIndex rule, or 0 for no
// samples.
func tail(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[tailIndex(len(s), q, tailBeyond)]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts attempted and failed ops. An op fails at most once, for
// the first reason given: an error, a non-2xx response, a degraded
// response, or a failed output check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// record counts one attempted op; a non-empty reason marks it failed.
func (t *tally) record(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// ratio is failed / attempted, or 0 before any attempt.
func (t *tally) ratio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// runtimeSnap is a reading of the Go runtime's allocation and GC
// counters (runtime/metrics).
type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauseSecs  float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauseSecs:  histogramSum(s[2].Value.Float64Histogram()),
	}
}

// histogramSum estimates the total of a runtime histogram from bucket
// midpoints (open-ended buckets count at their finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		total += float64(c) * (lo + hi) / 2
	}
	return total
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
