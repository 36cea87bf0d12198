// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the advisor from outside — the xiad server on a
// loopback listener, the advisor facade, or the search engine on a
// synthetic 10k-candidate space — for a fixed time, checks every op's
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pattern"
)

// opOutcome is one op's result as the closed loop records it.
type opOutcome struct {
	latency time.Duration
	// fail is the first failed check, or "" for a correct op.
	fail string
	// net is the op's estimated net benefit (summed over its recommends).
	net float64
}

// runner is one benchmark workload.
type runner interface {
	// setup builds the workload's state from scratch: data, catalog
	// statistics, advisors, sessions and warm-up.
	setup(ctx context.Context) error
	// teardown releases what setup built and stops what it started.
	teardown()
	// op runs op i of the seeded sequence; traced ops record spans.
	op(ctx context.Context, i int, traced bool) opOutcome
	// costCalls is the cumulative count of what-if cost-service calls and
	// the time spent in them, where the benchmark can see it.
	costCalls() (int64, time.Duration)
	// layers fills the traced run's per-layer metrics; it may replay ops
	// in-process after the timed window.
	layers(ctx context.Context, win window, lr *layerReport) error
}

// window is what the cost shims counted over the timed window.
type window struct {
	ops   int
	calls int64
	busy  time.Duration
}

// reportOptimizer sets the optimizer layer's metrics from the window.
func (w window) reportOptimizer(lr *layerReport) {
	ops := float64(max(w.ops, 1))
	lr.set("optimizer.calls_per_op", float64(w.calls)/ops)
	lr.set("optimizer.busy_ms_per_op", ms(w.busy)/ops)
	if w.calls > 0 {
		lr.set("optimizer.us_per_call", float64(w.busy)/float64(time.Microsecond)/float64(w.calls))
	}
}

// shape is how a run drives one workload.
type shape struct {
	// clients is the closed loop's concurrency.
	clients int
	// netOps is how many ops at the start of the sequence net_benefit
	// sums over; every run completes at least that many. serve-cold sums
	// 300 so the sum's spread across seeds stays small; a warm sweep is
	// deterministic, so one repeats exactly.
	netOps int
	// setups is how many times a run sets up; setup_s is the median.
	setups int
	// heapAt is the completed-op count at which the run samples the live
	// heap. Caches the program bounds by count, such as the what-if
	// engine's atom queue, grow and compact in a sawtooth as ops go by,
	// so runs compare at the same point of the op sequence rather than at
	// whatever op a fixed time happens to end on. Every run reaches it
	// well inside the window; a run that does not samples at the end.
	heapAt int
}

var shapes = map[string]shape{
	"serve-cold": {clients: 2, netOps: 300, setups: 5, heapAt: 500},
	"warm-sweep": {clients: 1, netOps: 1, setups: 5, heapAt: 30},
	"synth-10k":  {clients: 1, netOps: 40, setups: 9, heapAt: 60},
}

func newRunner(name string, seed uint64, rec *recorder) (runner, error) {
	switch name {
	case "serve-cold":
		return &serveCold{seed: seed, rec: rec}, nil
	case "warm-sweep":
		return &warmSweep{seed: seed, rec: rec}, nil
	case "synth-10k":
		return &synth10k{seed: seed, rec: rec}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-cold, warm-sweep or synth-10k)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopStats is what the timed closed loop measured.
type loopStats struct {
	window     time.Duration
	ops        int
	latencies  []float64 // ms, untraced ops
	tracedLats []float64 // ms, traced ops
	nets       map[int]float64
	heapMB     float64 // live heap at shape.heapAt completed ops (0: not reached)
}

// closedLoop runs ops from a shared sequence on sh.clients clients for
// the given time: each client starts its next op when the previous one
// returns. In trace mode ops are traced in alternating pairs (0-1 traced,
// 2-3 not, ...), so the two latency sets differ only by the tracing cost
// even where the inputs alternate op by op.
func closedLoop(ctx context.Context, r runner, sh shape, d time.Duration, traceMode bool, t *tally) loopStats {
	var (
		next atomic.Int64
		done atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		ls   = loopStats{nets: map[int]float64{}}
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < sh.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				traced := traceMode && i/2%2 == 0
				out := r.op(ctx, i, traced)
				t.record(out.fail)
				mu.Lock()
				if traced {
					ls.tracedLats = append(ls.tracedLats, ms(out.latency))
				} else {
					ls.latencies = append(ls.latencies, ms(out.latency))
				}
				if out.fail == "" && i < sh.netOps {
					ls.nets[i] = out.net
				}
				mu.Unlock()
				if done.Add(1) == int64(sh.heapAt) {
					heap := liveHeapMB()
					mu.Lock()
					ls.heapMB = heap
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ls.window = time.Since(start)
	ls.ops = int(next.Load())
	return ls
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	procStart := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-cold, warm-sweep or synth-10k")
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	traceMode := *traceFlag == 1
	var rec *recorder
	if traceMode {
		rec = newRecorder()
	}
	r, err := newRunner(*name, *seed, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()

	// Set up several times from a cold kernel and report the median; the
	// first set-up also covers process start.
	sh := shapes[*name]
	setups := make([]float64, sh.setups)
	for k := range setups {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		} else {
			r.teardown()
			pattern.ResetCaches()
			runtime.GC()
			t0 = time.Now()
		}
		if err := r.setup(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			r.teardown()
			return 1
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer r.teardown()

	var t tally
	kernelBefore := pattern.Stats()
	rtBefore := readRuntime()
	callsBefore, busyBefore := r.costCalls()
	ls := closedLoop(ctx, r, sh, time.Duration(*seconds)*time.Second, traceMode, &t)
	callsAfter, busyAfter := r.costCalls()
	win := window{ops: ls.ops, calls: callsAfter - callsBefore, busy: busyAfter - busyBefore}
	rtAfter := readRuntime()
	kernelWindow := pattern.Stats().Sub(kernelBefore)

	// net_benefit sums a fixed prefix of the sequence; finish any op of
	// it the window did not reach (outside the timing).
	for i := ls.ops; i < sh.netOps; i++ {
		out := r.op(ctx, i, false)
		t.record(out.fail)
		if out.fail == "" {
			ls.nets[i] = out.net
		}
	}
	net := 0.0
	for i := 0; i < sh.netOps; i++ {
		net += ls.nets[i]
	}
	heap := ls.heapMB
	if heap == 0 {
		heap = liveHeapMB()
	}

	allLats := append(append([]float64(nil), ls.latencies...), ls.tracedLats...)
	e2e := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"op_p50_ms":        {median(allLats), "ms"},
		"op_p90_ms":        {tail(allLats, 0.9), "ms"},
		"ops_per_s":        {float64(ls.ops) / ls.window.Seconds(), "1/s"},
		"fail_ratio":       {t.ratio(), "ratio"},
		"costcalls_per_op": {float64(win.calls) / float64(max(ls.ops, 1)), "count"},
		"net_benefit":      {net, "cost"},
		"heap_live_mb":     {heap, "MB"},
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d: %d ops (%d attempted, %d failed)\n",
		*name, *seed, *seconds, *traceFlag, ls.ops, t.attempted, t.failed)
	for reason, n := range t.reasons {
		fmt.Printf("  failure x%d: %s\n", n, reason)
	}
	if !traceMode {
		printMetrics("end-to-end", e2e, len(allLats))
		res.Metrics = map[string]metric{}
		for _, n := range endToEndMetrics {
			res.Metrics[n] = e2e[n]
		}
	} else {
		lr := newLayerReport()
		lr.set("trace.op_p50_ms", median(ls.tracedLats))
		lr.set("trace.overhead_ms", median(ls.tracedLats)-median(ls.latencies))
		ops := float64(max(ls.ops, 1))
		lr.set("whatif.costcalls_per_op", float64(win.calls)/ops)
		lr.set("pattern.contains_per_op", float64(kernelWindow.Contains.Hits+kernelWindow.Contains.Misses)/ops)
		lr.set("pattern.overlaps_per_op", float64(kernelWindow.Overlaps.Hits+kernelWindow.Overlaps.Misses)/ops)
		lr.set("pattern.hit_ratio", kernelWindow.HitRate())
		lr.set("pattern.interned", float64(pattern.Stats().Interned))
		lr.set("runtime.alloc_kb_per_op", float64(rtAfter.allocBytes-rtBefore.allocBytes)/1024/ops)
		lr.set("runtime.gc_per_op", float64(rtAfter.gcCycles-rtBefore.gcCycles)/ops)
		lr.set("runtime.gc_pause_ms", (rtAfter.pauseSecs-rtBefore.pauseSecs)*1000/ops)
		if err := r.layers(ctx, win, lr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced replay:", err)
			return 1
		}
		printMetrics("per-layer (traced run)", lr.metrics, len(ls.tracedLats))
		res.Metrics = lr.metrics
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			err := os.MkdirAll(*spansDir, 0o755)
			if err == nil {
				err = rec.write(path)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			} else {
				fmt.Printf("  spans: %s\n", path)
			}
		}
		// The end-to-end figures of a traced run are not reported as
		// such; print them only for comparison.
		printMetrics("end-to-end of this traced run (not reported)", e2e, len(allLats))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printMetrics prints one named metric per line, sorted by name.
func printMetrics(title string, metrics map[string]metric, samples int) {
	fmt.Printf("%s (%d latency samples):\n", title, samples)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
