package whatif

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// memoService is a relService over four queries and six definitions
// with mixed relevance, so single adds leave most queries untouched.
func memoService() (*relService, []*catalog.IndexDef) {
	svc := &relService{relevant: map[string]map[string]bool{
		"Q1": {"I1": true, "I3": true},
		"Q2": {"I2": true, "I3": true, "I5": true},
		"Q3": {"I4": true},
		"Q4": {"I1": true, "I6": true},
	}}
	defs := make([]*catalog.IndexDef, 6)
	for i := range defs {
		defs[i] = testDef(fmt.Sprintf("I%d", i+1), "c", fmt.Sprintf("/a/d%d", i+1))
	}
	return svc, defs
}

// memoCall is one call of lazy greedy's pattern: base+{d} for each add,
// or base alone when adds is nil.
type memoCall struct {
	base, adds []*catalog.IndexDef
}

func (c memoCall) run(ctx context.Context, b *Bound) ([]*ConfigEval, error) {
	if c.adds == nil {
		ev, err := b.EvaluateConfig(ctx, c.base)
		if err != nil {
			return nil, err
		}
		return []*ConfigEval{ev}, nil
	}
	return b.EvaluateExtensions(ctx, c.base, c.adds)
}

// lazyPattern is one base refreshed by several single adds, a burst,
// and then priced alone, as lazy greedy and assembly do; then the next
// round's grown base.
func lazyPattern(defs []*catalog.IndexDef) []memoCall {
	base := defs[:2]
	grown := defs[:3]
	return []memoCall{
		{base, defs[2:3]}, {base, defs[3:4]}, {base, defs[4:5]}, {base, defs[5:6]},
		{base, defs[2:6]},
		{base, nil},
		{grown, defs[3:4]}, {grown, defs[5:6]}, {grown, nil},
		{nil, defs},
	}
}

// TestBaseMemoDifferential runs lazy greedy's pattern on one Bound and
// each call on a fresh Bound over the same warm engine: the results
// (the very cached atoms) and every call's Stats must agree, so a
// memo-served atom counts exactly as the lookup it replaces. The memo
// must then serve the base alone even after the engine's cache lost
// its atoms, without a cost call.
func TestBaseMemoDifferential(t *testing.T) {
	svc, defs := memoService()
	e := NewEngine(svc, Options{Workers: 2})
	qs := testQueries(4)
	calls := lazyPattern(defs)
	for _, c := range calls { // warm the engine's cache
		if _, err := c.run(context.Background(), e.Bind(qs)); err != nil {
			t.Fatal(err)
		}
	}

	memo := e.Bind(qs)
	for ci, c := range calls {
		ctx, tally := WithTally(context.Background())
		got, err := c.run(ctx, memo)
		if err != nil {
			t.Fatal(err)
		}
		fctx, ftally := WithTally(context.Background())
		want, err := c.run(fctx, e.Bind(qs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("call %d: the memo Bound's atoms differ from a fresh Bound's", ci)
		}
		if tally.Stats() != ftally.Stats() {
			t.Errorf("call %d: memo Bound counts %+v, a fresh Bound %+v", ci, tally.Stats(), ftally.Stats())
		}
	}
	if n := memo.MemoizedBases(); n != 3 {
		t.Errorf("memo holds %d bases, want 3 (the two rounds' and the empty one)", n)
	}

	// Empty the cache behind the memo's back (no flush): the memo still
	// serves the base alone, a fresh Bound pays cost calls.
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.m = map[string]*entry{}
		sh.mu.Unlock()
	}
	before := svc.calls.Load()
	ctx, tally := WithTally(context.Background())
	if _, err := memo.EvaluateConfig(ctx, defs[:2]); err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load() - before; got != 0 {
		t.Errorf("memo-served base made %d cost calls, want 0", got)
	}
	if st := tally.Stats(); st.Hits != int64(len(qs)) || st.Misses != 0 {
		t.Errorf("memo-served base counted %+v, want %d hits", st, len(qs))
	}
	if _, err := e.Bind(qs).EvaluateConfig(context.Background(), defs[:2]); err != nil {
		t.Fatal(err)
	}
	if svc.calls.Load() == before {
		t.Error("a fresh Bound over the emptied cache made no cost calls")
	}
}

// TestBaseMemoConcurrent runs lazy greedy's pattern from several
// goroutines on one Bound over a cold engine: every call must return
// what the serial run on a fresh engine does, and the per-call stats
// must sum to the engine's.
func TestBaseMemoConcurrent(t *testing.T) {
	svc, defs := memoService()
	qs := testQueries(4)
	calls := lazyPattern(defs)
	ref := NewEngine(&relService{relevant: svc.relevant}, Options{Workers: 2})
	want := make([][]*ConfigEval, len(calls))
	for ci, c := range calls {
		evs, err := c.run(context.Background(), ref.Bind(qs))
		if err != nil {
			t.Fatal(err)
		}
		want[ci] = evs
	}

	e := NewEngine(svc, Options{Workers: 2})
	b := e.Bind(qs)
	const goroutines = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sum Stats
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci, c := range calls {
				ctx, tally := WithTally(context.Background())
				got, err := c.run(ctx, b)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					for qi := range got[i].Queries {
						if g, w := got[i].Queries[qi], want[ci][i].Queries[qi]; !reflect.DeepEqual(*g, *w) {
							t.Errorf("call %d config %d query %d: %+v, serial %+v", ci, i, qi, *g, *w)
						}
					}
				}
				st := tally.Stats()
				mu.Lock()
				sum.add(&st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if total := e.Stats(); sum != total {
		t.Errorf("calls counted %+v, the engine %+v", sum, total)
	}
}

// TestBaseMemoFlush pins that Flush retires the memo: after a flush,
// the same batch on the same Bound makes cost calls again.
func TestBaseMemoFlush(t *testing.T) {
	svc, defs := memoService()
	e := NewEngine(svc, Options{Workers: 2})
	b := e.Bind(testQueries(4))
	ctx := context.Background()
	if _, err := b.EvaluateExtensions(ctx, defs[:2], defs[2:3]); err != nil {
		t.Fatal(err)
	}
	warm := svc.calls.Load()
	if _, err := b.EvaluateExtensions(ctx, defs[:2], defs[2:3]); err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load(); got != warm {
		t.Fatalf("a warm repeat made %d cost calls", got-warm)
	}
	e.Flush()
	if _, err := b.EvaluateExtensions(ctx, defs[:2], defs[2:3]); err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load() - warm; got != warm {
		t.Errorf("after a flush the batch made %d cost calls, the cold one %d", got, warm)
	}
}

// TestBaseMemoCap pins the memo's bound: past baseMemoCap bases the
// memo is dropped whole and starts over, never holding more.
func TestBaseMemoCap(t *testing.T) {
	e := NewEngine(&fakeService{}, Options{Workers: 2})
	b := e.Bind(testQueries(2))
	const extra = 10
	for i := 0; i < baseMemoCap+extra; i++ {
		base := []*catalog.IndexDef{testDef(fmt.Sprintf("I%d", i), "c", "/a")}
		if _, err := b.EvaluateConfig(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		if n := b.MemoizedBases(); n > baseMemoCap {
			t.Fatalf("after %d bases the memo holds %d, cap %d", i+1, n, baseMemoCap)
		}
	}
	if n := b.MemoizedBases(); n != extra {
		t.Errorf("memo holds %d bases, want %d (dropped at the cap, then refilled)", n, extra)
	}
}

// TestBaseMemoSkipsFailedBatches pins that a failed or cancelled call
// records nothing in the memo, and that the memo does not let a
// cancelled call succeed.
func TestBaseMemoSkipsFailedBatches(t *testing.T) {
	svc, defs := memoService()
	e := NewEngine(svc, Options{Workers: 2})
	b := e.Bind(testQueries(4))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Cold: the cancelled batch claims atoms and gives them up.
	if _, err := b.EvaluateExtensions(cancelled, defs[:2], defs[2:4]); err == nil {
		t.Fatal("cancelled cold batch succeeded")
	}
	svc.fail = true
	if _, err := b.EvaluateConfig(context.Background(), defs[:2]); err == nil {
		t.Fatal("failing batch succeeded")
	}
	svc.fail = false
	if n := b.MemoizedBases(); n != 0 {
		t.Fatalf("failed batches left %d memo entries", n)
	}
	// Warm: every atom is cached, yet the cancelled call still fails
	// and records nothing.
	if _, err := e.Bind(testQueries(4)).EvaluateConfig(context.Background(), defs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EvaluateConfig(cancelled, defs[:2]); err == nil {
		t.Fatal("cancelled warm batch succeeded")
	}
	if n := b.MemoizedBases(); n != 0 {
		t.Errorf("a cancelled warm batch left %d memo entries", n)
	}
	// Memo-served: a call the memo alone answers honours cancellation
	// as a cache read does.
	if _, err := b.EvaluateConfig(context.Background(), defs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EvaluateConfig(cancelled, defs[:2]); !errors.Is(err, context.Canceled) {
		t.Errorf("a cancelled memo-served call returned %v, want context.Canceled", err)
	}
}
