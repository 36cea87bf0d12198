// Command xiad is the XML Index Advisor in server mode (paper §3): the
// advisor lives inside the engine process and clients drive it over a
// versioned HTTP/JSON API — open a workload into a session once, then
// run many budget/strategy sweeps against the warm what-if cache, with
// optional Server-Sent-Events progress streaming.
//
//	xiad -gen xmark:500:1 -addr :8080
//	xiad -load auction=data/auction -addr :8080 -session-ttl 10m
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/strategies
//	curl -s -X POST localhost:8080/v1/sessions \
//	    -d '{"name":"demo","workload":"q|3|for $i in collection(\"auction\")/site/regions/namerica/item where $i/quantity > 5 return $i/name"}'
//	curl -s -X POST localhost:8080/v1/sessions/s1/recommend -d '{"strategy":"race","budgetKB":256}'
//	curl -N -X POST 'localhost:8080/v1/sessions/s1/recommend?stream=1' -d '{"strategy":"race"}'
//
// Recommendations are best-so-far: at a request deadline
// (-request-timeout or per-request timeoutMs) the race portfolio
// returns the best configuration any member finished instead of an
// error, and an open costing circuit breaker degrades a search to the
// best configuration it had evaluated ("degraded": true).
//
// With -snapshot-dir, sessions are durable: idle-evicted sessions and
// every session open at graceful shutdown are persisted as versioned
// snapshot files, requests addressing a persisted session ID resume it
// lazily with its warm what-if cache, and opening a workload that was
// snapshotted before warm-starts instead of re-running the candidate
// pipeline.
//
// The process is signal-aware: SIGINT/SIGTERM drain in-flight requests
// via http.Server.Shutdown, bounded by -shutdown-timeout. Exit codes:
// 0 clean shutdown, 1 setup failure, 2 listen failure, 3 shutdown
// timeout (the server was closed hard).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole daemon lifecycle, separated from main so the exit
// code is a return value: 0 clean shutdown, 1 setup failure, 2 listen
// failure, 3 forced close after the shutdown grace expired.
func run(args []string) int {
	fs := flag.NewFlagSet("xiad", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	gen := fs.String("gen", "", "generate data: xmark:<docs>:<seed> or tpox:<securities>:<seed>")
	load := fs.String("load", "", "load data: <collection>=<dir>[,<collection>=<dir>...]")
	searchName := fs.String("search", "", "default search strategy: "+strings.Join(advisor.Strategies(), " | "))
	parallel := fs.Int("parallel", 0, "concurrent what-if evaluations (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 0, "max memoized what-if atoms, one per (query, projected sub-configuration) (0 = default 65536, negative = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 0, "default per-recommendation deadline; race returns best-so-far (0 = none)")
	sessionTTL := fs.Duration("session-ttl", 15*time.Minute, "evict sessions idle for this long (0 = never)")
	maxSessions := fs.Int("max-sessions", 0, "max concurrently open sessions (0 = unlimited)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently served recommendations; excess answers 429 (0 = unlimited)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace for draining in-flight requests on SIGINT/SIGTERM")
	whatifTimeout := fs.Duration("whatif-timeout", 0, "per-call what-if costing timeout (0 = resilience default)")
	whatifRetries := fs.Int("whatif-retries", 0, "what-if costing retries per call (0 = default, negative = none)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive costing failures that open the circuit breaker (0 = default)")
	breakerOpen := fs.Duration("breaker-open", 0, "how long an open breaker rejects before probing (0 = default)")
	faults := fs.String("faults", "", "inject deterministic costing faults, e.g. seed=7,error=0.1,latency=0.05:3ms (chaos/soak testing)")
	snapshotDir := fs.String("snapshot-dir", "", "durable sessions: persist session snapshots here on eviction and shutdown, resume lazily by ID (empty = off)")
	fs.Parse(args)

	// An empty -gen/-load pair is allowed: sessions then fail until
	// data exists, which suits smoke tests of /v1/healthz and
	// /v1/strategies.
	st := store.New()
	if err := datagen.SetupStore(st, *gen, *load); err != nil {
		log.Println("xiad:", err)
		return 1
	}
	resilience := advisor.ResilienceOptions{
		CallTimeout:      *whatifTimeout,
		MaxRetries:       *whatifRetries,
		FailureThreshold: *breakerThreshold,
		OpenFor:          *breakerOpen,
	}
	opts := []advisor.Option{
		advisor.WithParallelism(*parallel),
		advisor.WithCacheSize(*cacheSize),
		advisor.WithResilience(resilience),
	}
	if *searchName != "" {
		opts = append(opts, advisor.WithStrategy(*searchName))
	}
	if *reqTimeout > 0 {
		opts = append(opts, advisor.WithDeadline(*reqTimeout))
	}
	if *faults != "" {
		opts = append(opts, advisor.WithFaultInjection(*faults))
		log.Printf("xiad: FAULT INJECTION ACTIVE (%s) — this is a chaos/soak configuration", *faults)
	}
	if *snapshotDir != "" {
		opts = append(opts, advisor.WithSnapshotDir(*snapshotDir))
	}
	adv, err := advisor.New(catalog.New(st), opts...)
	if err != nil {
		log.Println("xiad:", err)
		return 1
	}
	srv := server.New(adv, server.Options{
		IdleTTL:     *sessionTTL,
		MaxSessions: *maxSessions,
		MaxInFlight: *maxInFlight,
	})
	janitorCtx, stopJanitor := context.WithCancel(context.Background())
	defer stopJanitor()
	if *sessionTTL > 0 {
		go srv.Janitor(janitorCtx, *sessionTTL/4+time.Second)
	}

	// Listen separately from Serve so a dead port is a distinct,
	// immediate failure (exit 2) rather than whatever falls out of
	// ListenAndServe's combined error.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Println("xiad: listen:", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv}

	log.Printf("xiad: serving the advisor API on %s (strategies: %s; %d what-if workers)",
		ln.Addr(), strings.Join(advisor.Strategies(), ", "), adv.Workers())
	log.Printf("xiad: limits: max-sessions=%d max-inflight=%d session-ttl=%v request-timeout=%v shutdown-timeout=%v",
		*maxSessions, *maxInFlight, *sessionTTL, *reqTimeout, *shutdownTimeout)
	if *snapshotDir != "" {
		log.Printf("xiad: durable sessions: snapshot-dir=%s", *snapshotDir)
	}
	ropts := resilience.WithDefaults()
	log.Printf("xiad: costing resilience: call-timeout=%v retries=%d breaker-threshold=%d breaker-open=%v",
		ropts.CallTimeout, ropts.MaxRetries, ropts.FailureThreshold, ropts.OpenFor)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	select {
	case err := <-serveErr:
		// Serve only returns on failure here: ErrServerClosed cannot
		// happen before a signal triggers Shutdown below.
		log.Println("xiad: serve:", err)
		return 2
	case sig := <-sigs:
		log.Printf("xiad: received %v; draining in-flight requests (grace %v)", sig, *shutdownTimeout)
	}
	stopJanitor()
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// The grace expired with requests still running; close hard so
		// the process actually exits, and say so in the exit code.
		log.Println("xiad: shutdown grace expired, closing:", err)
		httpSrv.Close()
		return 3
	}
	if *snapshotDir != "" {
		// In-flight requests have drained; persist every open session so
		// the next process resumes them warm.
		n, perr := srv.PersistAll()
		if perr != nil {
			log.Println("xiad: persisting sessions:", perr)
		}
		log.Printf("xiad: persisted %d session(s) to %s", n, *snapshotDir)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Println("xiad: serve:", err)
		return 2
	}
	log.Println("xiad: clean shutdown")
	return 0
}
