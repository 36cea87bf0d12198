// Server mode: spawn the xiad HTTP daemon in-process and drive it the
// way an external client would — create a session over REST, run
// recommendations (one plain, one streaming over Server-Sent Events),
// and read the versioned JSON wire format. The same server binary is
// available standalone as cmd/xiad.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/store"
)

func main() {
	// 1. Build the database and the advisor, then put the HTTP server
	// in front of it — exactly what cmd/xiad does behind flags.
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 300, Seed: 9}); err != nil {
		log.Fatal(err)
	}
	adv, err := advisor.New(catalog.New(st))
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(server.New(adv, server.Options{}))
	defer ts.Close()
	fmt.Println("xiad serving on", ts.URL)

	// 2. Liveness and capability discovery.
	var health server.Health
	getJSON(ts.URL+"/v1/healthz", &health)
	var strategies server.StrategyList
	getJSON(ts.URL+"/v1/strategies", &strategies)
	fmt.Printf("healthz: %s; strategies: %s (default %s)\n\n",
		health.Status, strings.Join(strategies.Strategies, ", "), strategies.Default)

	// 3. Open a workload into a session. The session holds the prepared
	// candidate space and the warm what-if cache server-side, so every
	// recommend call below is incremental.
	w := datagen.XMarkWorkload(12, 9)
	var sess server.SessionInfo
	postJSON(ts.URL+"/v1/sessions", server.CreateSessionRequest{
		Name:     "xmark-demo",
		Workload: w.Format(),
	}, &sess)
	fmt.Printf("session %s: workload %q, %d basic -> %d candidates\n\n",
		sess.ID, sess.Workload, sess.Candidates.Basics, sess.Candidates.Total)

	// 4. A plain recommendation at a 256 KB budget.
	var resp advisor.RecommendResponse
	postJSON(ts.URL+"/v1/sessions/"+sess.ID+"/recommend",
		advisor.RecommendRequest{Strategy: "race", BudgetKB: 256}, &resp)
	fmt.Printf("[%s, winner %s] %d indexes, %d pages, net benefit %.1f\n",
		resp.Strategy, resp.Search.Winner, len(resp.Indexes), resp.TotalPages, resp.NetBenefit)
	for _, ddl := range resp.DDL() {
		fmt.Println("   ", ddl)
	}

	// 5. The same request as a progress stream: ?stream=1 turns the
	// response into Server-Sent Events — candidate-space stats, every
	// search trace event as it happens, counters, then the result.
	fmt.Println("\nstreaming the unconstrained recommendation:")
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+sess.ID+"/recommend?stream=1",
		bytes.NewBufferString(`{"strategy":"greedy-heuristic"}`))
	if err != nil {
		log.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	traces := 0
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev advisor.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			log.Fatal(err)
		}
		switch ev.Type {
		case advisor.EventTrace:
			traces++
			if traces <= 5 {
				fmt.Printf("  live trace: %s\n", ev.Trace.String())
			}
		case advisor.EventResult:
			fmt.Printf("  ... %d trace events total\n", traces)
			fmt.Printf("  result: %d indexes, net benefit %.1f, %d evaluations (%.0f%% cache hits)\n",
				len(ev.Response.Indexes), ev.Response.NetBenefit,
				ev.Response.Evaluations, 100*ev.Response.Cache.HitRate())
		case advisor.EventError:
			log.Fatal(ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, v any) {
	res, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	decode(res, v)
}

func postJSON(url string, body, v any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	decode(res, v)
}

func decode(res *http.Response, v any) {
	if res.StatusCode >= 300 {
		var e server.Error
		json.NewDecoder(res.Body).Decode(&e)
		log.Fatalf("%s: %s", res.Status, e.Error.Message)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
