package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/search"
)

// serveCold drives an in-process xiad (server.New over the Medium catalog,
// one shared Advisor) on a loopback listener with two closed-loop HTTP
// clients. One op opens a never-seen workload into a session, asks for
// one recommendation at a quarter of its basicsPages, and deletes the
// session.
type serveCold struct {
	seed uint64
	rec  *recorder

	cat    *catalog.Catalog
	shim   *costShim
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client

	mu       sync.Mutex
	resp     responseLayers
	pipeline map[string][]float64
	respKB   []float64
	non2xx   int
	replays  map[int]string // traced ops' workload texts, replayed in-process
}

// coldReplays is how many traced ops the traced run replays in-process.
const coldReplays = 8

func (b *serveCold) costCalls() (int64, time.Duration) { return b.shim.counts() }

func (b *serveCold) setup(ctx context.Context) error {
	cat, err := buildCatalog()
	if err != nil {
		return err
	}
	b.cat = cat
	b.shim = &costShim{rec: b.rec}
	adv, err := advisor.New(cat, advisor.WithCostWrapper(b.shim.wrap))
	if err != nil {
		return err
	}
	var h http.Handler = server.New(adv, server.Options{})
	if b.rec != nil {
		h = timedHandler{next: h, rec: b.rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: h}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		// Serve returns http.ErrServerClosed after Shutdown; a failure
		// before that shows up as failed ops.
		_ = b.srv.Serve(ln)
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
	b.pipeline = map[string][]float64{}
	b.replays = map[int]string{}
	// Warm the connections and the kernel on workloads outside the
	// measured sequence.
	for k := 0; k < 2; k++ {
		if out := b.run(ctx, -1-k, coldWorkloadText(^b.seed, k), false); out.fail != "" {
			return fmt.Errorf("warm-up op: %s", out.fail)
		}
	}
	return nil
}

func (b *serveCold) teardown() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		b.srv.Close() // connections still open after the grace period
	}
	<-b.served
	b.client.CloseIdleConnections()
	b.srv = nil
}

func (b *serveCold) op(ctx context.Context, i int, traced bool) opOutcome {
	text := coldWorkloadText(b.seed, i)
	out := b.run(ctx, i, text, traced)
	if traced {
		id := b.rec.begin("workload.parse", i, -1)
		_, err := advisor.ParseWorkload("cold", text)
		b.rec.end(id)
		if err != nil && out.fail == "" {
			out.fail = "parse: " + err.Error()
		}
		b.mu.Lock()
		if len(b.replays) < coldReplays {
			b.replays[i] = text
		}
		b.mu.Unlock()
	}
	return out
}

// run is one create → recommend → delete cycle over HTTP.
func (b *serveCold) run(ctx context.Context, i int, text string, traced bool) opOutcome {
	root := -1
	if traced {
		root = b.rec.begin("op", i, -1)
		defer b.rec.end(root)
	}
	start := time.Now()
	var info server.SessionInfo
	st, _, err := b.call(ctx, http.MethodPost, "/v1/sessions",
		server.CreateSessionRequest{Name: fmt.Sprintf("cold-%d", i), Workload: text}, &info, i, root, "client.create")
	if err != nil || st != http.StatusCreated {
		return opOutcome{latency: time.Since(start), fail: failure("create", st, err)}
	}
	budget := budgetFor(info.Candidates.BasicsPages, 25)
	var resp advisor.RecommendResponse
	st, n, err := b.call(ctx, http.MethodPost, "/v1/sessions/"+info.ID+"/recommend",
		advisor.RecommendRequest{BudgetPages: budget}, &resp, i, root, "client.recommend")
	fail := ""
	if err != nil || st != http.StatusOK {
		fail = failure("recommend", st, err)
	} else {
		fail = checkResponse(&resp, budget)
	}
	dst, _, err := b.call(ctx, http.MethodDelete, "/v1/sessions/"+info.ID, nil, nil, i, root, "client.delete")
	if fail == "" && (err != nil || dst != http.StatusNoContent) {
		fail = failure("delete", dst, err)
	}
	out := opOutcome{latency: time.Since(start), fail: fail, net: resp.NetBenefit}
	if traced && fail == "" {
		b.mu.Lock()
		b.resp.ops++
		b.resp.add(resp.Search, resp.Cache)
		b.pipeline["pipeline"] = append(b.pipeline["pipeline"], ms(resp.Pipeline.Wall))
		b.pipeline["matrix"] = append(b.pipeline["matrix"], ms(resp.Pipeline.Matrix.BuildWall+resp.Pipeline.Matrix.ReduceWall))
		b.pipeline["count"] = append(b.pipeline["count"], float64(resp.Candidates.Total))
		b.pipeline["enumerated"] = append(b.pipeline["enumerated"], float64(resp.Pipeline.Enumerated))
		b.pipeline["pairs"] = append(b.pipeline["pairs"], float64(resp.Pipeline.Matrix.Pairs))
		b.respKB = append(b.respKB, float64(n)/1024)
		b.mu.Unlock()
	}
	return out
}

// failure names a failed HTTP step.
func failure(step string, status int, err error) string {
	if err != nil {
		return step + ": " + err.Error()
	}
	return fmt.Sprintf("%s: HTTP %d", step, status)
}

// checkResponse applies the output checks every recommend must pass.
func checkResponse(r *advisor.RecommendResponse, budget int64) string {
	switch {
	case r.Degraded:
		return "degraded response: " + r.DegradedReason
	case r.TotalPages > budget:
		return fmt.Sprintf("configuration of %d pages over budget %d", r.TotalPages, budget)
	case r.NetBenefit < 0:
		return fmt.Sprintf("negative net benefit %.1f", r.NetBenefit)
	}
	return ""
}

// call sends one JSON request and decodes a 2xx JSON reply into out. A
// traced call is a client span whose id travels in headers, so the
// server-side span can name it as parent. It returns the status and the
// response body size.
func (b *serveCold) call(ctx context.Context, method, path string, body, out any, op, parent int, name string) (int, int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	id := -1
	if parent >= 0 {
		id = b.rec.begin(name, op, parent)
		defer b.rec.end(id)
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
	}
	res, err := b.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, len(data), err
	}
	if res.StatusCode/100 != 2 {
		b.mu.Lock()
		b.non2xx++
		b.mu.Unlock()
		return res.StatusCode, len(data), nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return res.StatusCode, len(data), fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return res.StatusCode, len(data), nil
}

// timedHandler wraps the xiad handler in the traced run: requests that
// carry a client span become server spans named by route, and the span
// rides the request context down to the cost shim.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err1 := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	parent, err2 := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	if err := errors.Join(err1, err2); err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.rec.begin(routeSpan(r), op, parent)
	defer h.rec.end(id)
	h.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), op, id)))
}

// routeSpan names the server span of a request by its route.
func routeSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodDelete:
		return "server.delete"
	case strings.HasSuffix(r.URL.Path, "/recommend"):
		return "server.recommend"
	default:
		return "server.create"
	}
}

// layers reports the traced run's per-layer metrics: server spans, the
// recommend responses' pipeline, search and cache blocks (the cache
// blocks are windows over the shared engine's counters, which overlap
// under two clients), the cost shim's counters over the timed window, and
// an in-process replay of the first traced ops for evaluator wait and
// assembly time.
func (b *serveCold) layers(ctx context.Context, win window, lr *layerReport) error {
	win.reportOptimizer(lr)
	assemble, err := b.replay(ctx)
	if err != nil {
		return err
	}
	spans := b.rec.snapshot()
	names := byName(spans)
	var waits []float64
	for _, route := range []string{"create", "recommend", "delete"} {
		lr.set("server."+route+"_ms", medianMS(spans, names["server."+route]))
		for _, j := range names["server."+route] {
			if p := spans[j].Parent; p >= 0 {
				waits = append(waits, ms(spans[p].dur()-spans[j].dur()))
			}
		}
	}
	lr.set("server.wait_ms", median(waits))
	lr.set("workload.parse_ms", medianMS(spans, names["workload.parse"]))
	searches := names["search."+search.Default]
	wait, self := evalWait(spans, searches)
	n := float64(max(len(searches), 1))
	lr.set("whatif.wait_ms_per_op", ms(wait)/n)
	lr.set("whatif.self_ms_per_op", ms(self)/n)

	b.mu.Lock()
	defer b.mu.Unlock()
	lr.set("server.resp_kb", median(b.respKB))
	lr.set("server.non2xx", float64(b.non2xx))
	lr.set("candidate.pipeline_ms", median(b.pipeline["pipeline"]))
	lr.set("candidate.matrix_ms", median(b.pipeline["matrix"]))
	lr.set("candidate.count", median(b.pipeline["count"]))
	lr.set("candidate.enumerated", median(b.pipeline["enumerated"]))
	lr.set("candidate.matrix_pairs", median(b.pipeline["pairs"]))
	b.resp.assembleMS = assemble
	b.resp.report(lr)
	return nil
}

// replay re-runs the first traced ops' workloads in-process, one at a
// time after the timed window: a fresh core advisor with a cost shim
// prepares the workload, the default strategy searches its space with a
// timed evaluator (evaluator wait and the cost calls beneath it), and a
// full RecommendWith times assembly (call time less search time). It
// returns the assembly times in ms.
func (b *serveCold) replay(ctx context.Context) ([]float64, error) {
	b.mu.Lock()
	ids := make([]int, 0, len(b.replays))
	for i := range b.replays {
		ids = append(ids, i)
	}
	b.mu.Unlock()
	sort.Ints(ids)
	strat, err := search.Lookup(search.Default)
	if err != nil {
		return nil, err
	}
	var assemble []float64
	for _, i := range ids {
		w, err := advisor.ParseWorkload("cold", b.replays[i])
		if err != nil {
			return nil, err
		}
		shim := &costShim{rec: b.rec}
		opts := core.DefaultOptions()
		opts.CostWrapper = shim.wrap
		a := core.New(b.cat, opts)
		root := b.rec.begin("replay", i, -1)
		pid := b.rec.begin("core.prepare", i, root)
		p, err := a.Prepare(withSpan(ctx, i, pid), w)
		b.rec.end(pid)
		if err != nil {
			return nil, err
		}
		var basics int64
		for _, c := range p.Basics() {
			basics += c.Pages()
		}
		budget := budgetFor(basics, 25)
		sid := b.rec.begin("search."+search.Default, i, root)
		sp := p.Space().WithBudget(budget)
		sp.Eval = timeEvaluator(sp.Eval, b.rec, i, sid)
		_, err = strat.Search(ctx, sp)
		b.rec.end(sid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rid := b.rec.begin("core.recommend", i, root)
		rec, err := p.RecommendWith(ctx, core.SearchKind(search.Default), budget)
		b.rec.end(rid)
		b.rec.end(root)
		if err != nil {
			return nil, err
		}
		assemble = append(assemble, ms(time.Since(t0)-rec.Search.Elapsed))
	}
	return assemble, nil
}
