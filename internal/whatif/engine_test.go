package whatif

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
)

// fakeService is a controllable CostService: cost = base + 10 per
// applicable config index, so results are a pure function of the inputs.
type fakeService struct {
	calls atomic.Int64
	// block, when non-nil, is waited on before answering.
	block chan struct{}
	// blockOn restricts blocking to configs containing this def name
	// (empty = every call blocks).
	blockOn string
	// fail makes every call error.
	fail bool
}

func (f *fakeService) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (QueryEval, error) {
	f.calls.Add(1)
	blocked := f.block != nil
	if blocked && f.blockOn != "" {
		blocked = false
		for _, d := range config {
			if d.Name == f.blockOn {
				blocked = true
				break
			}
		}
	}
	if blocked {
		select {
		case <-f.block:
		case <-ctx.Done():
			return QueryEval{}, ctx.Err()
		}
	}
	if f.fail {
		return QueryEval{}, errors.New("fake failure")
	}
	base := float64(100 + len(q.ID))
	ev := QueryEval{CostNoIndexes: base, Cost: base}
	for _, d := range config {
		ev.Cost -= 10
		ev.UsedIndexes = append(ev.UsedIndexes, d.Name)
	}
	return ev, nil
}

func testQueries(n int) []*querylang.Query {
	out := make([]*querylang.Query, n)
	for i := range out {
		out[i] = &querylang.Query{ID: fmt.Sprintf("Q%d", i+1), Collection: "c", Text: fmt.Sprintf("query %d", i+1)}
	}
	return out
}

func testDef(name, coll, pat string) *catalog.IndexDef {
	return &catalog.IndexDef{Name: name, Collection: coll, Pattern: pattern.MustParse(pat), Type: sqltype.Varchar, Virtual: true}
}

func TestEvaluateConfigMemoizes(t *testing.T) {
	svc := &fakeService{}
	e := NewEngine(svc, Options{Workers: 4})
	qs := testQueries(5)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a/b"), testDef("I2", "c", "/a/c")}

	first, err := e.EvaluateConfig(context.Background(), qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Queries) != 5 {
		t.Fatalf("got %d query evals", len(first.Queries))
	}
	for i, qe := range first.Queries {
		want := float64(100+len(qs[i].ID)) - 20
		if qe.Cost != want {
			t.Errorf("q%d cost = %f, want %f", i, qe.Cost, want)
		}
	}
	// One lookup per query: every cold atom a miss with both
	// definitions relevant.
	if st := e.Stats(); st.Misses != 5 || st.Hits != 0 || st.RelevantDefs != 10 {
		t.Errorf("cold stats = %+v, want 5 misses with 2 relevant defs each", st)
	}
	ctx, tally := WithTally(context.Background())
	again, err := e.EvaluateConfig(ctx, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Queries, first.Queries) {
		t.Error("second evaluation did not return the cached values")
	}
	if st := tally.Stats(); st.Hits != 5 || st.Misses != 0 {
		t.Errorf("warm tally = %+v, want every atom served from the cache", st)
	}
	// A permutation of the same configuration must also hit.
	if _, err := e.EvaluateConfig(context.Background(), qs, []*catalog.IndexDef{cfg[1], cfg[0]}); err != nil {
		t.Fatal(err)
	}
	// One atom per (query, sub-config): 5 cold misses, then two warm
	// passes of 5 hits each.
	st := e.Stats()
	if st.Misses != 5 || st.Hits != 10 {
		t.Errorf("stats = %+v, want 5 misses / 10 hits", st)
	}
	if got := svc.calls.Load(); got != 5 {
		t.Errorf("service called %d times, want 5", got)
	}
}

// TestConcurrentEvaluationsAgree hammers the engine from many goroutines
// over a handful of distinct configurations (run with -race). Half the
// goroutines share one Bound, so its definition memo fills concurrently;
// the other half bind per call.
func TestConcurrentEvaluationsAgree(t *testing.T) {
	svc := &fakeService{}
	e := NewEngine(svc, Options{Workers: 8})
	qs := testQueries(8)
	shared := e.Bind(qs)
	configs := make([][]*catalog.IndexDef, 6)
	for i := range configs {
		for j := 0; j <= i; j++ {
			configs[i] = append(configs[i], testDef(fmt.Sprintf("I%d", j), "c", fmt.Sprintf("/a/p%d", j)))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for g := 0; g < 10; g++ {
		for ci, cfg := range configs {
			wg.Add(1)
			b := shared
			if g%2 == 1 {
				b = e.Bind(qs)
			}
			go func(ci int, cfg []*catalog.IndexDef) {
				defer wg.Done()
				res, err := b.EvaluateConfig(context.Background(), cfg)
				if err != nil {
					errs <- err
					return
				}
				for i, qe := range res.Queries {
					want := float64(100+len(qs[i].ID)) - 10*float64(ci+1)
					if qe.Cost != want {
						errs <- fmt.Errorf("config %d q%d: cost %f want %f", ci, i, qe.Cost, want)
						return
					}
				}
			}(ci, cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.Stats()
	if want := int64(len(configs) * len(qs)); st.Misses != want {
		t.Errorf("misses = %d, want %d (singleflight dedup per atom)", st.Misses, want)
	}
	if want := int64(len(configs) * len(qs)); st.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", st.Evaluations, want)
	}
}

// TestSingleflightDedup verifies that concurrent requests for one
// configuration share a single in-flight evaluation.
func TestSingleflightDedup(t *testing.T) {
	svc := &fakeService{block: make(chan struct{})}
	e := NewEngine(svc, Options{Workers: 2})
	qs := testQueries(1)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}

	const waiters = 20
	var wg sync.WaitGroup
	results := make([]*ConfigEval, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.EvaluateConfig(context.Background(), qs, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Let the waiters pile up on the single in-flight entry, then
	// release the backend.
	time.Sleep(20 * time.Millisecond)
	close(svc.block)
	wg.Wait()

	if got := svc.calls.Load(); got != 1 {
		t.Errorf("service called %d times, want 1", got)
	}
	for i := 1; i < waiters; i++ {
		if !reflect.DeepEqual(results[i].Queries, results[0].Queries) {
			t.Fatal("waiters observed different results")
		}
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, waiters-1)
	}
}

// TestConfigKeyNoCollisions: definitions whose naive field concatenation
// would be identical must still produce distinct keys.
func TestConfigKeyNoCollisions(t *testing.T) {
	cases := [][2][]*catalog.IndexDef{
		// name/collection boundary shifts: "AB"+"C" vs "A"+"BC".
		{
			{testDef("AB", "C", "/a")},
			{testDef("A", "BC", "/a")},
		},
		// one two-field def vs two defs sharing the halves.
		{
			{testDef("X", "c", "/a"), testDef("Y", "c", "/b")},
			{testDef("XY", "c", "/a"), testDef("", "c", "/b")},
		},
		// type vs pattern tail.
		{
			{testDef("N", "c", "/a/b")},
			{testDef("N", "c", "/a")},
		},
	}
	for i, pair := range cases {
		if ConfigKey(pair[0]) == ConfigKey(pair[1]) {
			t.Errorf("case %d: distinct configs share key %q", i, ConfigKey(pair[0]))
		}
	}
	// Same config in any order is the same key.
	a := []*catalog.IndexDef{testDef("I1", "c", "/a"), testDef("I2", "c", "/b")}
	b := []*catalog.IndexDef{a[1], a[0]}
	if ConfigKey(a) != ConfigKey(b) {
		t.Error("config key is order-sensitive")
	}

	// Distinct workloads must not share cache entries even for the
	// same configuration.
	svc := &fakeService{}
	e := NewEngine(svc, Options{})
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}
	q1 := []*querylang.Query{{ID: "Q1", Collection: "c", Text: "t1"}}
	q2 := []*querylang.Query{{ID: "Q1", Collection: "c", Text: "t2"}}
	if _, err := e.EvaluateConfig(context.Background(), q1, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvaluateConfig(context.Background(), q2, cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (per-workload keyspace)", st.Misses)
	}
}

func TestContextCancellation(t *testing.T) {
	svc := &fakeService{block: make(chan struct{})} // never released
	e := NewEngine(svc, Options{Workers: 2})
	qs := testQueries(4)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.EvaluateConfig(ctx, qs, cfg)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the evaluation")
	}

	// A pre-cancelled context returns immediately without touching the
	// backend again; the failed entry was not cached.
	before := svc.calls.Load()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.EvaluateConfig(cancelled, qs, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled err = %v", err)
	}
	if e.Len() != 0 {
		t.Errorf("failed evaluations were cached (len=%d)", e.Len())
	}
	_ = before
}

// TestCachedReadsCountAndHonourCancellation: a batch whose atoms are all
// cached reads them without waiting, charges them as hits (projected
// ones included) only when it succeeds, and still fails on a cancelled
// context.
func TestCachedReadsCountAndHonourCancellation(t *testing.T) {
	svc := &fakeService{}
	e := NewEngine(svc, Options{Workers: 2})
	qs := testQueries(3)
	qs[2].Collection = "other" // the projection drops I1 for this query
	b := e.Bind(qs)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}
	if _, err := b.EvaluateConfig(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	calls := svc.calls.Load()

	ctx, tally := WithTally(context.Background())
	res, err := b.EvaluateConfig(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.calls.Load(); got != calls {
		t.Errorf("cached re-evaluation called the service %d times", got-calls)
	}
	want := Stats{Hits: 3, ProjectedHits: 1, RelevantDefs: 2}
	if got := tally.Stats(); got != want {
		t.Errorf("tally = %+v, want %+v", got, want)
	}
	for qi, qe := range res.Queries {
		if qe == nil {
			t.Errorf("q%d: no cached eval", qi)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled, tally = WithTally(cancelled)
	if _, err := b.EvaluateConfig(cancelled, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled cached read: err = %v, want context.Canceled", err)
	}
	if got := tally.Stats(); got != (Stats{}) {
		t.Errorf("failed cached read charged %+v", got)
	}
}

// TestWaiterCancellation: a waiter joining an in-flight evaluation must
// honor its own context even while the owner keeps computing.
func TestWaiterCancellation(t *testing.T) {
	svc := &fakeService{block: make(chan struct{})}
	e := NewEngine(svc, Options{Workers: 1})
	qs := testQueries(1)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}

	go e.EvaluateConfig(context.Background(), qs, cfg) // owner, blocked
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.EvaluateConfig(ctx, qs, cfg)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter did not honor its context")
	}
	close(svc.block) // let the owner finish
}

// TestWaiterRetriesAfterOwnerCancellation: when the computing caller's
// own context dies mid-evaluation, a waiter with a live context must
// not inherit that cancellation — it retries and succeeds.
func TestWaiterRetriesAfterOwnerCancellation(t *testing.T) {
	svc := &fakeService{block: make(chan struct{})}
	e := NewEngine(svc, Options{Workers: 2})
	qs := testQueries(1)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.EvaluateConfig(ownerCtx, qs, cfg)
		ownerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)

	waiterDone := make(chan error, 1)
	go func() {
		_, err := e.EvaluateConfig(context.Background(), qs, cfg)
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)

	// Kill the owner; its evaluation fails with context.Canceled. The
	// waiter must retry as the new owner; unblock the backend so that
	// retry completes.
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	close(svc.block)
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Errorf("waiter inherited the owner's cancellation: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never completed")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	svc := &fakeService{fail: true}
	e := NewEngine(svc, Options{})
	qs := testQueries(2)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}
	if _, err := e.EvaluateConfig(context.Background(), qs, cfg); err == nil {
		t.Fatal("expected error")
	}
	svc.fail = false
	res, err := e.EvaluateConfig(context.Background(), qs, cfg)
	if err != nil || res == nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if st := e.Stats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (2 queries x 2 attempts, error atoms evicted)", st.Misses)
	}
}

func TestFlushInvalidatesCache(t *testing.T) {
	svc := &fakeService{}
	e := NewEngine(svc, Options{})
	qs := testQueries(2)
	cfg := []*catalog.IndexDef{testDef("I1", "c", "/a")}
	if _, err := e.EvaluateConfig(context.Background(), qs, cfg); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Fatalf("len = %d before flush, want one atom per query", e.Len())
	}
	e.Flush()
	if e.Len() != 0 {
		t.Fatalf("len = %d after flush", e.Len())
	}
	// The next evaluation is a miss and hits the backend again.
	if _, err := e.EvaluateConfig(context.Background(), qs, cfg); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (flushed atoms re-evaluated)", st.Misses)
	}
	if got := svc.calls.Load(); got != 4 {
		t.Errorf("service called %d times, want 4", got)
	}
}

// singleShardEngine is NewEngine with the cache folded into one shard
// holding MaxEntries atoms, so eviction follows one exact FIFO order.
func singleShardEngine(svc CostService, o Options) *Engine {
	e := NewEngine(svc, o)
	e.shards, e.shardMask, e.maxPerShard = e.shards[:1], 0, o.MaxEntries
	return e
}

func TestCacheEviction(t *testing.T) {
	svc := &fakeService{}
	e := singleShardEngine(svc, Options{MaxEntries: 4})
	qs := testQueries(1)
	for i := 0; i < 20; i++ {
		cfg := []*catalog.IndexDef{testDef(fmt.Sprintf("I%d", i), "c", "/a")}
		if _, err := e.EvaluateConfig(context.Background(), qs, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Len(); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
}

// TestCacheOvershootHeals: a slow in-flight evaluation at the FIFO head
// must not pin the shard above its cap — later completed entries behind
// the head are evicted instead.
func TestCacheOvershootHeals(t *testing.T) {
	svc := &fakeService{block: make(chan struct{}), blockOn: "HOT"}
	e := singleShardEngine(svc, Options{MaxEntries: 2, Workers: 4})
	qs := testQueries(1)

	hotDone := make(chan struct{})
	go func() {
		defer close(hotDone)
		e.EvaluateConfig(context.Background(), qs, []*catalog.IndexDef{testDef("HOT", "c", "/hot")})
	}()
	time.Sleep(10 * time.Millisecond) // HOT is now the in-flight head

	for i := 0; i < 8; i++ {
		cfg := []*catalog.IndexDef{testDef(fmt.Sprintf("I%d", i), "c", "/a")}
		if _, err := e.EvaluateConfig(context.Background(), qs, cfg); err != nil {
			t.Fatal(err)
		}
		if n := e.Len(); n > 2 {
			t.Fatalf("insert %d: cache holds %d entries, cap 2 (in-flight head pinned the overshoot)", i, n)
		}
	}
	close(svc.block)
	<-hotDone
	if n := e.Len(); n > 2 {
		t.Errorf("after head completed: %d entries, cap 2", n)
	}
}

func TestCollectionFiltering(t *testing.T) {
	svc := &fakeService{}
	e := NewEngine(svc, Options{})
	qs := []*querylang.Query{{ID: "Q1", Collection: "a", Text: "qa"}, {ID: "Q2", Collection: "b", Text: "qb"}}
	cfg := []*catalog.IndexDef{testDef("IA", "a", "/x"), testDef("IB", "b", "/y")}
	res, err := e.EvaluateConfig(context.Background(), qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Queries[0].UsedIndexes; len(got) != 1 || got[0] != "IA" {
		t.Errorf("collection a saw %v", got)
	}
	if got := res.Queries[1].UsedIndexes; len(got) != 1 || got[0] != "IB" {
		t.Errorf("collection b saw %v", got)
	}
}
