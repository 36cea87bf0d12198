package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent indexes
// the span that caused it (-1 for a root); Op is the op it belongs to.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run. A nil recorder
// records nothing, which is how the untraced run pays no tracing cost.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already finished call.
func (r *recorder) add(name string, op, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children, such as
// cost calls from two concurrent workers, count their union once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		out[i] = s.dur() - time.Duration(covered(s.Start, s.End, ivs))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanRef names a span in a context, so a layer the benchmark wraps deep
// in the call stack (the cost shim) can attach its spans to the caller.
type spanRef struct{ op, id int }

type spanKey struct{}

func withSpan(ctx context.Context, op, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// byName groups span indexes by name.
func byName(spans []span) map[string][]int {
	out := map[string][]int{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], i)
	}
	return out
}

// medianMS is the median duration in ms of the spans at idx.
func medianMS(spans []span, idx []int) float64 {
	xs := make([]float64, len(idx))
	for i, j := range idx {
		xs[i] = ms(spans[j].dur())
	}
	return median(xs)
}
