package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/testleak"
	"repro/internal/whatif"
)

// chaosOpenFor is the breaker cooldown used by the chaos suite: long
// enough that an open breaker is observable over several HTTP round
// trips, short enough that the recovery phase waits milliseconds.
const chaosOpenFor = 50 * time.Millisecond

// chaosResilience tunes the middleware for deterministic chaos under
// seeded 10% transient errors: MaxRetries comfortably above the
// breaker threshold so a hard outage trips the breaker within the
// FIRST failing call's retry loop, and the threshold high enough that
// ten independent 10% faults in a row (p = 1e-10) never trip it by
// accident during the transient phase.
func chaosResilience() advisor.ResilienceOptions {
	return advisor.ResilienceOptions{
		RetryBase:        100 * time.Microsecond,
		RetryMax:         time.Millisecond,
		MaxRetries:       12,
		FailureThreshold: 10,
		OpenFor:          chaosOpenFor,
	}
}

// newChaosServer is newTestServer plus the production resilience
// middleware and a schedule-driven fault injector between the
// middleware and the real cost backend. Parallelism 1 keeps backend
// call numbers deterministic and lets the half-open breaker's single
// probe decide recovery without concurrent calls racing it.
func newChaosServer(t *testing.T, ropts advisor.ResilienceOptions, sopts server.Options) (*httptest.Server, *whatif.FaultService, *experiments.Env) {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	var fs *whatif.FaultService
	adv, err := advisor.New(catalog.New(env.Store),
		advisor.WithParallelism(1),
		advisor.WithResilience(ropts),
		advisor.WithCostWrapper(func(svc advisor.CostService) advisor.CostService {
			fs = whatif.NewFaultService(svc, whatif.FaultSchedule{})
			return fs
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(adv, sopts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, fs, env
}

func getHealth(t *testing.T, ts *httptest.Server) server.Health {
	t.Helper()
	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.Health
	decodeJSON(t, res, http.StatusOK, &h)
	return h
}

func openNamed(t *testing.T, ts *httptest.Server, name, workloadText string) server.SessionInfo {
	t.Helper()
	var info server.SessionInfo
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions",
		server.CreateSessionRequest{Name: name, Workload: workloadText}),
		http.StatusCreated, &info)
	return info
}

// TestChaosLifecycle is the acceptance chaos run: one server phased
// through clean traffic, an injected panic, seeded transient errors
// plus latency spikes, a hard costing outage, and recovery. Every
// failure maps to a typed JSON error or a degraded 200 — never a
// crash — health tracks the breaker, and no goroutine leaks.
func TestChaosLifecycle(t *testing.T) {
	testleak.Check(t)
	ts, fs, env := newChaosServer(t, chaosResilience(), server.Options{})

	// --- Phase A: clean baseline over XMark.
	xmark := openNamed(t, ts, "xmark", env.XMarkWorkload.Format())
	var clean advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+xmark.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-basic", UnlimitedBudget: true}),
		http.StatusOK, &clean)
	if clean.Degraded || len(clean.Indexes) == 0 {
		t.Fatalf("clean phase: degraded=%v #idx=%d", clean.Degraded, len(clean.Indexes))
	}
	if h := getHealth(t, ts); h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("healthz after clean phase: %+v", h)
	}

	// --- Phase B: one injected backend panic. It surfaces as a typed
	// 500 envelope (PanicError is never retried), and a single failure
	// leaves the breaker closed.
	tpox := openNamed(t, ts, "tpox", env.TPoXWorkload.Format())
	fs.SetSchedule(whatif.FaultSchedule{PanicOn: fs.Calls() + 1})
	var panicErr server.Error
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+tpox.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-basic", UnlimitedBudget: true}),
		http.StatusInternalServerError, &panicErr)
	if !strings.Contains(panicErr.Error.Message, "panic") {
		t.Fatalf("panic phase error: %+v", panicErr)
	}
	if h := getHealth(t, ts); h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("healthz after one panic: %+v", h)
	}

	// --- Phase C: seeded transient chaos (10% errors, 5% latency
	// spikes). Retries absorb it: the recommendation succeeds,
	// undegraded, and the stats prove faults really were injected.
	injectedBefore := fs.Injected()
	fs.SetSchedule(whatif.FaultSchedule{Seed: 7, ErrorRate: 0.1, LatencyRate: 0.05, Latency: 500 * time.Microsecond})
	var chaotic advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+tpox.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-basic", UnlimitedBudget: true}),
		http.StatusOK, &chaotic)
	if chaotic.Degraded || len(chaotic.Indexes) == 0 {
		t.Fatalf("chaos phase: degraded=%v #idx=%d", chaotic.Degraded, len(chaotic.Indexes))
	}
	if fs.Injected() == injectedBefore {
		t.Error("chaos phase injected no faults; the schedule never engaged")
	}
	if chaotic.Cache.Resilience.Retries == 0 {
		t.Error("faults were injected but no retries recorded")
	}

	// --- Phase D: hard outage. The XMark session's atoms are warm from
	// phase A, so greedy-heuristic selects its first index from cache,
	// hits the dead backend on the next lazy round, trips the breaker
	// inside that call's retry loop, and degrades to best-so-far.
	fs.SetSchedule(whatif.FaultSchedule{FailAfter: 1})
	var degraded advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+xmark.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-heuristic", UnlimitedBudget: true}),
		http.StatusOK, &degraded)
	if !degraded.Degraded || degraded.DegradedReason == "" {
		t.Fatalf("outage phase: degraded=%v reason=%q", degraded.Degraded, degraded.DegradedReason)
	}
	if len(degraded.Indexes) == 0 {
		t.Error("degraded response carries no best-so-far configuration")
	}
	if h := getHealth(t, ts); h.Status != "degraded" || h.Breaker != "open" {
		t.Fatalf("healthz during outage: %+v", h)
	}

	// A brand-new session needs uncached base costing, which the open
	// breaker fails fast; the server maps that to a typed 503 envelope.
	var unavailable server.Error
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions",
		server.CreateSessionRequest{Name: "paper", Workload: env.PaperWorkload.Format()}),
		http.StatusServiceUnavailable, &unavailable)
	if unavailable.Error.Code != http.StatusServiceUnavailable || unavailable.Error.Message == "" {
		t.Fatalf("error envelope during outage: %+v", unavailable)
	}

	// With the breaker open, a fully cached recommendation still serves
	// clean: phase A's exact request repeats without touching the
	// backend and matches its original answer.
	var cached advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+xmark.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-basic", UnlimitedBudget: true}),
		http.StatusOK, &cached)
	if cached.Degraded {
		t.Error("cache-served recommendation flagged degraded during the outage")
	}
	if got, want := cached.DDL(), clean.DDL(); !equalStrings(got, want) {
		t.Errorf("cache-served recommendation drifted during the outage:\n got %v\nwant %v", got, want)
	}

	// --- Phase E: recovery. Clear the schedule, let the breaker cool
	// off, and drive fresh (uncached) evaluations through it: the
	// half-open probe succeeds, the breaker closes, health is ok again.
	fs.SetSchedule(whatif.FaultSchedule{})
	time.Sleep(3 * chaosOpenFor)
	openNamed(t, ts, "paper", env.PaperWorkload.Format())
	if h := getHealth(t, ts); h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// panicStrategy is a registered strategy that explodes mid-search,
// standing in for a search-layer bug.
type panicStrategy struct{}

func (panicStrategy) Name() string { return "test-panic" }

func (panicStrategy) Search(ctx context.Context, sp *search.Space) (*search.Result, error) {
	panic("test-panic strategy exploded")
}

// TestRecommendPanicContained pins the server's panic containment: a
// strategy panic becomes a JSON 500 on the plain path and a terminal
// error event on the SSE path, and the server keeps serving afterward.
func TestRecommendPanicContained(t *testing.T) {
	testleak.Check(t)
	search.Register(panicStrategy{})
	defer search.Unregister("test-panic")
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)
	url := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	var e server.Error
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{Strategy: "test-panic"}),
		http.StatusInternalServerError, &e)
	if e.Error.Code != http.StatusInternalServerError || !strings.Contains(e.Error.Message, "panic") {
		t.Fatalf("error envelope: %+v", e)
	}

	t.Run("stream", func(t *testing.T) {
		res := postJSON(t, url+"?stream=1", advisor.RecommendRequest{Strategy: "test-panic"})
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", res.StatusCode)
		}
		events := readSSE(t, res.Body)
		if len(events) == 0 {
			t.Fatal("no SSE events")
		}
		last := events[len(events)-1]
		if last.ev.Type != advisor.EventError || !strings.Contains(last.ev.Error, "panic") {
			t.Fatalf("terminal event type=%q error=%q, want an error mentioning the panic",
				last.ev.Type, last.ev.Error)
		}
	})

	// The server survived both panics: health answers and the session
	// still recommends.
	if h := getHealth(t, ts); h.Status != "ok" {
		t.Fatalf("healthz after panics: %+v", h)
	}
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{}), http.StatusOK, nil)
}

// blockingStrategy parks until its context is cancelled — an arbitrarily
// slow search for admission and disconnect tests.
type blockingStrategy struct{}

func (blockingStrategy) Name() string { return "test-block" }

func (blockingStrategy) Search(ctx context.Context, sp *search.Space) (*search.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// startBlockedRecommend fires a recommend that parks in the search
// until ctx is cancelled, returning a channel closed when the request
// goroutine has fully unwound.
func startBlockedRecommend(t *testing.T, ctx context.Context, url string, stream bool) <-chan struct{} {
	t.Helper()
	data, err := json.Marshal(advisor.RecommendRequest{Strategy: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	if stream {
		url += "?stream=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			res.Body.Close()
		}
	}()
	return done
}

// TestDefaultRaceDeadlineReturnsBestFinished pins best-so-far as the
// serving default: on an advisor built with no options, a race request
// whose timeout cuts off a member answers 200 with the best finished
// member's configuration, and its pick note names the deadline.
func TestDefaultRaceDeadlineReturnsBestFinished(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)
	url := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	// Race the real members to completion first: the reference winner,
	// and a warm cache so they finish long before the deadline below.
	var want advisor.RecommendResponse
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{Strategy: "race"}), http.StatusOK, &want)

	search.Register(blockingStrategy{})
	defer search.Unregister("test-block")
	var got advisor.RecommendResponse
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{Strategy: "race", TimeoutMS: 500, IncludeTrace: true}),
		http.StatusOK, &got)
	if got.Search.Winner != want.Search.Winner || got.NetBenefit != want.NetBenefit {
		t.Errorf("deadline race won by %s (net %v), want %s (net %v)",
			got.Search.Winner, got.NetBenefit, want.Search.Winner, want.NetBenefit)
	}
	if !reflect.DeepEqual(got.Indexes, want.Indexes) {
		t.Errorf("deadline race picked %+v, want %+v", got.Indexes, want.Indexes)
	}
	if len(got.Trace) == 0 {
		t.Fatal("no trace returned")
	}
	pick := got.Trace[len(got.Trace)-1]
	if pick.Action != search.ActionPick || !strings.Contains(pick.Note, "deadline:") {
		t.Errorf("last trace event %s %q, want a pick naming the deadline", pick.Action, pick.Note)
	}
}

// TestMaxInFlightAdmission pins admission control: with MaxInFlight 1
// and one recommendation parked in the search, the next one bounces
// with 429 and a Retry-After hint, and the slot frees once the first
// request ends.
func TestMaxInFlightAdmission(t *testing.T) {
	testleak.Check(t)
	search.Register(blockingStrategy{})
	defer search.Unregister("test-block")
	ts, srv, wl := newTestServer(t, server.Options{MaxInFlight: 1})
	info := openSession(t, ts, wl)
	url := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startBlockedRecommend(t, ctx, url, false)
	waitFor(t, "blocked request in flight", func() bool { return srv.InFlight() == 1 })

	res := postJSON(t, url, advisor.RecommendRequest{})
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 response without a Retry-After header")
	}
	var e server.Error
	decodeJSON(t, res, http.StatusTooManyRequests, &e)
	if e.Error.Code != http.StatusTooManyRequests || e.Error.Message == "" {
		t.Fatalf("error envelope: %+v", e)
	}

	cancel()
	<-done
	waitFor(t, "slot released", func() bool { return srv.InFlight() == 0 })
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{}), http.StatusOK, nil)
}

// TestSSEClientDisconnect pins stream cleanup: a client that hangs up
// mid-stream cancels the search, and the recommend goroutine unwinds
// (verified by the leak check) instead of writing into the void.
func TestSSEClientDisconnect(t *testing.T) {
	testleak.Check(t)
	search.Register(blockingStrategy{})
	defer search.Unregister("test-block")
	ts, srv, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)

	res := postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend?stream=1",
		advisor.RecommendRequest{Strategy: "test-block"})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", res.StatusCode)
	}
	// Wait for the stream to actually start (the space event flushes
	// before the search parks), then hang up mid-stream.
	first := make(chan error, 1)
	go func() {
		_, err := bufio.NewReader(res.Body).ReadString('\n')
		first <- err
	}()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE bytes within 5s")
	}
	res.Body.Close()
	waitFor(t, "in-flight drained after disconnect", func() bool { return srv.InFlight() == 0 })
}

// TestEvictionSparesInFlightSessions pins the janitor-vs-recommend
// race: a session whose recommendation is still running is never
// evicted, however stale the fake clock says it is; once the request
// ends it ages out normally.
func TestEvictionSparesInFlightSessions(t *testing.T) {
	testleak.Check(t)
	search.Register(blockingStrategy{})
	defer search.Unregister("test-block")

	now := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(d)
	}
	ts, srv, wl := newTestServer(t, server.Options{IdleTTL: time.Minute, Now: clock})
	info := openSession(t, ts, wl)
	url := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	active := func(want int) {
		t.Helper()
		waitFor(t, "session active count", func() bool {
			res, err := http.Get(ts.URL + "/v1/sessions/" + info.ID)
			if err != nil {
				t.Fatal(err)
			}
			var got server.SessionInfo
			decodeJSON(t, res, http.StatusOK, &got)
			return got.Active == want
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startBlockedRecommend(t, ctx, url, false)
	active(1)

	advance(2 * time.Minute)
	if n := srv.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d session(s) while a recommend was in flight", n)
	}

	cancel()
	<-done
	active(0)
	advance(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d session(s) after the request ended, want 1", n)
	}
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{}), http.StatusNotFound, nil)
}

// waitFor polls cond for up to 5s; the deadline turns a wedged
// condition into a test failure instead of a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
