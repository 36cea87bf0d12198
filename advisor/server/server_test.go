package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	"repro/internal/testleak"
)

// newTestServer spins up the xiad handler over the shared small XMark
// environment, returning the test server and the textual workload used
// to open sessions.
func newTestServer(t *testing.T, opts server.Options) (*httptest.Server, *server.Server, string) {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(adv, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, env.XMarkWorkload.Format()
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func decodeJSON(t *testing.T, res *http.Response, wantStatus int, v any) {
	t.Helper()
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d; body: %s", res.StatusCode, wantStatus, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decode: %v; body: %s", err, body)
		}
	}
}

func openSession(t *testing.T, ts *httptest.Server, workloadText string) server.SessionInfo {
	t.Helper()
	var info server.SessionInfo
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions",
		server.CreateSessionRequest{Name: "xmark", Workload: workloadText}),
		http.StatusCreated, &info)
	return info
}

// TestSessionLifecycle walks the whole session surface: health,
// strategies, create, get, list, recommend, delete, and the 404 after
// deletion.
func TestSessionLifecycle(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})

	var health server.Health
	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, res, http.StatusOK, &health)
	if health.Status != "ok" || health.Sessions != 0 || health.APIVersion != advisor.APIVersion {
		t.Fatalf("healthz: %+v", health)
	}

	var strategies server.StrategyList
	res, err = http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, res, http.StatusOK, &strategies)
	if strategies.Default != advisor.DefaultStrategy() ||
		!reflect.DeepEqual(strategies.Strategies, advisor.Strategies()) {
		t.Fatalf("strategies: %+v", strategies)
	}

	info := openSession(t, ts, wl)
	if info.ID == "" || info.Workload != "xmark" || info.Candidates.Basics == 0 {
		t.Fatalf("session info: %+v", info)
	}

	var got server.SessionInfo
	res, err = http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, res, http.StatusOK, &got)
	if got.ID != info.ID || got.Candidates != info.Candidates {
		t.Fatalf("get session: %+v vs %+v", got, info)
	}

	var list server.SessionList
	res, err = http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, res, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != info.ID {
		t.Fatalf("session list: %+v", list)
	}

	var resp advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "greedy-heuristic"}), http.StatusOK, &resp)
	if resp.APIVersion != advisor.APIVersion || len(resp.Indexes) == 0 || resp.Strategy != "greedy-heuristic" {
		t.Fatalf("recommend: version=%q strategy=%q #idx=%d", resp.APIVersion, resp.Strategy, len(resp.Indexes))
	}
	for _, idx := range resp.Indexes {
		if idx.DDL == "" || idx.Pattern == "" {
			t.Fatalf("bare index in response: %+v", idx)
		}
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", res.StatusCode)
	}
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend",
		advisor.RecommendRequest{}), http.StatusNotFound, nil)
}

// TestConcurrentRecommends satisfies the acceptance bar: at least 8
// concurrent recommend calls against one shared session (run under
// -race in CI), each byte-identical to its serial twin.
func TestConcurrentRecommends(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)
	url := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	var base advisor.RecommendResponse
	decodeJSON(t, postJSON(t, url, advisor.RecommendRequest{}), http.StatusOK, &base)

	reqs := make([]advisor.RecommendRequest, 0, 8)
	for _, strategy := range []string{"greedy-basic", "greedy-heuristic", "topdown", "race"} {
		for _, budget := range []int64{0, base.TotalPages / 2} {
			reqs = append(reqs, advisor.RecommendRequest{Strategy: strategy, BudgetPages: budget})
		}
	}
	serial := make([]advisor.RecommendResponse, len(reqs))
	for i, rq := range reqs {
		decodeJSON(t, postJSON(t, url, rq), http.StatusOK, &serial[i])
	}

	results := make([]advisor.RecommendResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq advisor.RecommendRequest) {
			defer wg.Done()
			data, err := json.Marshal(rq)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := http.Post(url, "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer res.Body.Close()
			body, err := io.ReadAll(res.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if res.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", res.StatusCode, body)
				return
			}
			errs[i] = json.Unmarshal(body, &results[i])
		}(i, rq)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d (%s@%d): %v", i, reqs[i].Strategy, reqs[i].BudgetPages, errs[i])
		}
		if got, want := results[i].DDL(), serial[i].DDL(); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d (%s@%d): concurrent result differs from serial",
				i, reqs[i].Strategy, reqs[i].BudgetPages)
		}
	}
}

// sseEvent is one parsed SSE message.
type sseEvent struct {
	name string
	ev   advisor.Event
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var name string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev advisor.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
			out = append(out, sseEvent{name: name, ev: ev})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSSEStreamOrdering satisfies the acceptance bar: the SSE stream
// delivers search trace events before the final response, in sequence
// order, with matching SSE event names.
func TestSSEStreamOrdering(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)

	res := postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend?stream=1",
		advisor.RecommendRequest{Strategy: "race"})
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, res.Body)
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	traces := 0
	resultAt := -1
	for i, e := range events {
		if string(e.ev.Type) != e.name {
			t.Errorf("event %d: SSE name %q != payload type %q", i, e.name, e.ev.Type)
		}
		if e.ev.Seq != i {
			t.Errorf("event %d has seq %d", i, e.ev.Seq)
		}
		switch e.ev.Type {
		case advisor.EventTrace:
			if resultAt >= 0 {
				t.Error("trace event after the result")
			}
			traces++
		case advisor.EventResult:
			resultAt = i
		case advisor.EventError:
			t.Fatalf("stream error: %s", e.ev.Error)
		}
	}
	if events[0].ev.Type != advisor.EventSpace {
		t.Errorf("first event is %s, want space", events[0].ev.Type)
	}
	if traces == 0 {
		t.Error("no trace events streamed")
	}
	if resultAt != len(events)-1 {
		t.Errorf("result at position %d of %d", resultAt, len(events))
	}
	final := events[resultAt].ev.Response
	if final == nil || len(final.Indexes) == 0 {
		t.Fatal("terminal event carries no recommendation")
	}
}

// TestMalformedRequests pins the 4xx surface.
func TestMalformedRequests(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)
	recommendURL := ts.URL + "/v1/sessions/" + info.ID + "/recommend"

	post := func(url, body string) *http.Response {
		res, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name   string
		res    *http.Response
		status int
	}{
		{"invalid JSON body", post(recommendURL, "{not json"), http.StatusBadRequest},
		{"unknown field", post(recommendURL, `{"budgetPages": 1, "frobnicate": true}`), http.StatusBadRequest},
		{"unknown strategy", post(recommendURL, `{"strategy":"annealing"}`), http.StatusBadRequest},
		{"conflicting budgets", post(recommendURL, `{"budgetPages":1,"budgetKB":1}`), http.StatusBadRequest},
		{"future api version", post(recommendURL, `{"apiVersion":"v9"}`), http.StatusBadRequest},
		{"budgetKB overflowing bytes", post(recommendURL, `{"budgetKB":9007199254740993}`), http.StatusBadRequest},
		{"timeoutMs overflowing duration", post(recommendURL, `{"timeoutMs":18446744073710}`), http.StatusBadRequest},
		{"missing workload", post(ts.URL+"/v1/sessions", `{"name":"empty"}`), http.StatusBadRequest},
		{"unparseable workload", post(ts.URL+"/v1/sessions", `{"workload":"q|notaweight|x"}`), http.StatusBadRequest},
		{"NaN workload weight", post(ts.URL+"/v1/sessions", `{"workload":"q|NaN|for $i in collection(\"auction\")/site/regions/namerica/item where $i/quantity > 5 return $i/name"}`), http.StatusBadRequest},
		{"bad session apiVersion", post(ts.URL+"/v1/sessions", `{"apiVersion":"v9","workload":"q|1|x"}`), http.StatusBadRequest},
		{"unknown session", post(ts.URL+"/v1/sessions/nope/recommend", `{}`), http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e server.Error
			decodeJSON(t, tc.res, tc.status, &e)
			if e.Error.Code != tc.status || e.Error.Message == "" {
				t.Errorf("error envelope: %+v", e)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		res, err := http.Get(recommendURL)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET on recommend: status %d, want 405", res.StatusCode)
		}
	})
}

// TestMalformedInsertDocumentIs400 pins the insert check at the
// session boundary: a workload whose insert document does not parse is
// a client error naming the line, not a failure inside the advisor.
func TestMalformedInsertDocumentIs400(t *testing.T) {
	testleak.Check(t)
	ts, srv, _ := newTestServer(t, server.Options{})
	var e server.Error
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions", server.CreateSessionRequest{
		Name:     "bad-insert",
		Workload: "q|1|for $i in collection(\"auction\")/site/regions/namerica/item return $i/name\ni|1|auction|<site><open>",
	}), http.StatusBadRequest, &e)
	if !strings.Contains(e.Error.Message, "line 2") {
		t.Errorf("error %q does not name line 2", e.Error.Message)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions open after a rejected create", n)
	}
}

// TestRequestTimeoutAnytime exercises the best-so-far deadline over
// the wire: a recommend with a very tight timeout on the race strategy
// either returns a best-so-far result or a timeout status — never a
// hang, never a malformed response.
func TestRequestTimeoutAnytime(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{})
	info := openSession(t, ts, wl)

	// Warm the cache so members can finish instantly at the deadline.
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "race"}), http.StatusOK, &advisor.RecommendResponse{})

	res := postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "race", TimeoutMS: 50})
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	switch res.StatusCode {
	case http.StatusOK:
		var resp advisor.RecommendResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Strategy != "race" {
			t.Errorf("strategy %q", resp.Strategy)
		}
	case http.StatusGatewayTimeout:
		// Acceptable when even the fastest member missed 50ms.
	default:
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
}

// TestIdleEviction pins the janitor contract with a fake clock: idle
// sessions past the TTL are evicted and answer 404, fresh ones survive.
func TestIdleEviction(t *testing.T) {
	testleak.Check(t)
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

	stale := openSession(t, ts, wl)
	advance(2 * time.Minute)
	fresh := openSession(t, ts, wl)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+stale.ID+"/recommend",
		advisor.RecommendRequest{}), http.StatusNotFound, nil)
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+fresh.ID+"/recommend",
		advisor.RecommendRequest{}), http.StatusOK, nil)
}

// TestSessionLimit pins MaxSessions.
func TestSessionLimit(t *testing.T) {
	testleak.Check(t)
	ts, _, wl := newTestServer(t, server.Options{MaxSessions: 1})
	openSession(t, ts, wl)
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions",
		server.CreateSessionRequest{Workload: wl}), http.StatusTooManyRequests, nil)
}
