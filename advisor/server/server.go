// Package server implements the advisor's server mode (paper §3): the
// xiad HTTP/JSON daemon. The advisor lives inside the engine process
// and clients drive it over a small versioned REST surface:
//
//	POST   /v1/sessions                  open a workload into a session
//	GET    /v1/sessions                  list open sessions
//	GET    /v1/sessions/{id}             one session's info
//	DELETE /v1/sessions/{id}             close a session
//	POST   /v1/sessions/{id}/recommend   run one recommendation
//	POST   /v1/sessions/{id}/recommend?stream=1   …streaming progress (SSE)
//	GET    /v1/strategies                registered search strategies
//	GET    /v1/healthz                   liveness + session count
//
// Request and response bodies are the advisor package's versioned DTOs;
// ?stream=1 upgrades a recommend call to a Server-Sent-Events stream of
// advisor.Events (candidate-space stats, live search trace, counters)
// terminated by the result. Sessions are concurrent-safe — many
// recommend calls may share one session, and they share its warm
// what-if cache — and idle sessions are evicted after Options.IdleTTL.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/advisor"
)

// Options configure a Server.
type Options struct {
	// IdleTTL evicts sessions unused for this long (0 = never). Evicted
	// sessions answer 404, like closed ones.
	IdleTTL time.Duration
	// MaxSessions bounds concurrently open sessions (0 = unlimited);
	// opening past the bound answers 429.
	MaxSessions int
	// MaxInFlight bounds concurrently served recommendations across all
	// sessions (0 = unlimited). A recommend past the bound answers 429
	// with a Retry-After header instead of queueing — searches are CPU-
	// bound, so admission control beats an unbounded backlog.
	MaxInFlight int
	// Now is the clock (nil = time.Now), a test hook for eviction.
	Now func() time.Time
}

// Server is the advisor HTTP front end. It implements http.Handler.
type Server struct {
	adv   *advisor.Advisor
	opts  Options
	mux   *http.ServeMux
	start time.Time

	// inflight counts recommend requests currently being served, for
	// MaxInFlight admission and the health report.
	inflight atomic.Int64
	// evictedPersisted counts sessions persisted to disk on eviction
	// (only ever non-zero with a snapshot directory configured).
	evictedPersisted atomic.Int64

	// sweepMu serializes EvictIdle sweeps.
	sweepMu sync.Mutex

	mu       sync.Mutex
	seq      int64
	sessions map[string]*session
	// reserved counts session slots handed out to in-flight creates
	// that have not inserted yet, so MaxSessions holds even while the
	// expensive Open runs outside the lock.
	reserved int
}

// session is one server-side session entry: the advisor session plus
// the bookkeeping the server locks per session (last use, in-flight
// request count) so eviction never races a running recommendation.
type session struct {
	id   string
	sess *advisor.Session

	mu       sync.Mutex
	lastUsed time.Time
	active   int
}

// touch records a request starting on the session.
func (e *session) touch(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastUsed = now
	e.active++
}

// done records a request finishing.
func (e *session) done(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastUsed = now
	e.active--
}

// idleSince reports whether the session has no in-flight request and
// was last used before the cutoff.
func (e *session) idleSince(cutoff time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active == 0 && e.lastUsed.Before(cutoff)
}

// New builds a server over the advisor.
func New(adv *advisor.Advisor, opts Options) *Server {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Server{adv: adv, opts: opts, start: opts.Now(), sessions: map[string]*session{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/recommend", s.handleRecommend)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux = mux
	// With durable sessions, new IDs must not collide with sessions a
	// previous process persisted.
	s.scanSnapshotSeq()
	return s
}

// ServeHTTP dispatches to the v1 routes behind a panic-recovery
// middleware: a panic escaping any handler becomes a JSON 500 (best
// effort — headers may already be written on a streaming response)
// instead of killing the connection goroutine with a stack splat.
// http.ErrAbortHandler is re-raised: that is net/http's own
// abort-this-response protocol, not a failure.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.error(w, http.StatusInternalServerError, fmt.Sprintf("internal error: recovered panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// InFlight counts recommend requests currently being served.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// Janitor evicts idle sessions every interval until ctx is cancelled.
// Run it in a goroutine next to http.Serve; tests call EvictIdle
// directly instead.
func (s *Server) Janitor(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.EvictIdle()
		}
	}
}

// EvictIdle closes and removes every session idle longer than IdleTTL,
// returning how many were evicted. Sessions with in-flight requests are
// never evicted. With durable sessions on, each victim is persisted to
// its snapshot file first (counted in EvictedPersisted), so a later
// request on its ID resumes it warm instead of finding a 404; a session
// that fails to persist is still evicted — eviction is the memory
// bound, durability is best effort.
//
// Victims are chosen under the server lock but persisted outside it,
// so creates, lookups and recommends on other sessions never wait on
// snapshot I/O. Each victim is re-checked under the lock afterwards: one
// touched meanwhile stays, and one DELETEd meanwhile loses the ID file
// the persist may have written back. Sweeps run one at a time, so an
// entry missing at the re-check was deleted, not evicted by a
// concurrent sweep.
func (s *Server) EvictIdle() int {
	if s.opts.IdleTTL <= 0 {
		return 0
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	cutoff := s.opts.Now().Add(-s.opts.IdleTTL)
	s.mu.Lock()
	var victims []*session
	for _, e := range s.sessions {
		if e.idleSince(cutoff) {
			victims = append(victims, e)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, e := range victims {
		persisted := s.persistSession(e) == nil && s.snapshotsOn()
		s.mu.Lock()
		cur := s.sessions[e.id]
		evict := cur == e && e.idleSince(cutoff)
		if evict {
			delete(s.sessions, e.id)
		}
		s.mu.Unlock()
		switch {
		case evict:
			if persisted {
				s.evictedPersisted.Add(1)
			}
			e.sess.Close()
			n++
		case cur != e:
			s.removeSessionSnapshot(e.id)
		}
	}
	return n
}

// SessionCount is the number of open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// --- wire DTOs for the server-only endpoints ---

// CreateSessionRequest opens a workload into a session.
type CreateSessionRequest struct {
	// APIVersion pins the wire format; empty means the current version.
	APIVersion string `json:"apiVersion,omitempty"`
	// Name labels the workload; empty uses "workload".
	Name string `json:"name,omitempty"`
	// Workload is the textual workload format (required; one weighted
	// query or update statement per line).
	Workload string `json:"workload"`
}

// SessionInfo describes one open session.
type SessionInfo struct {
	APIVersion string `json:"apiVersion"`
	// ID addresses the session in /v1/sessions/{id} routes.
	ID string `json:"id"`
	// Workload names the session's workload.
	Workload string `json:"workload"`
	// Candidates summarizes the prepared candidate space.
	Candidates advisor.CandidateSummary `json:"candidates"`
	// CreatedAtMS and LastUsedMS are Unix milliseconds.
	CreatedAtMS int64 `json:"createdAtMs"`
	LastUsedMS  int64 `json:"lastUsedMs"`
	// Active counts in-flight recommendations.
	Active int `json:"active"`
	// Durable reports whether the session persists to a snapshot
	// directory (eviction and graceful shutdown save it; its ID resumes
	// lazily). The remaining fields are only set when it does.
	Durable bool `json:"durable,omitempty"`
	// RestoredFrom is the snapshot path the session warm-started from
	// ("" for a cold open).
	RestoredFrom string `json:"restoredFrom,omitempty"`
	// LastSavedMS is the Unix-millisecond time of the session's last
	// successful persist (0 = never persisted by this process).
	LastSavedMS int64 `json:"lastSavedMs,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	APIVersion string        `json:"apiVersion"`
	Sessions   []SessionInfo `json:"sessions"`
}

// StrategyList is the GET /v1/strategies response.
type StrategyList struct {
	APIVersion string   `json:"apiVersion"`
	Default    string   `json:"default"`
	Strategies []string `json:"strategies"`
}

// Health is the GET /v1/healthz response. Status is "ok", or
// "degraded" while the advisor's costing circuit breaker is not closed
// (uncached what-if evaluations fail fast; recommendations may come
// back best-so-far with "degraded": true).
type Health struct {
	APIVersion string `json:"apiVersion"`
	Status     string `json:"status"`
	Sessions   int    `json:"sessions"`
	UptimeMS   int64  `json:"uptimeMs"`
	// Breaker is the costing circuit breaker state ("closed", "open",
	// "half-open"); empty when the advisor runs without resilience
	// middleware.
	Breaker string `json:"breaker,omitempty"`
	// InFlight counts recommend requests currently being served
	// (bounded by Options.MaxInFlight when set).
	InFlight int `json:"inFlight"`
	// SnapshotDir is the durable-session snapshot directory (empty =
	// durability off; the remaining snapshot fields are then absent).
	SnapshotDir string `json:"snapshotDir,omitempty"`
	// SnapshotFiles counts snapshot files currently in the directory.
	SnapshotFiles int `json:"snapshotFiles,omitempty"`
	// EvictedPersisted counts sessions persisted on idle eviction since
	// the process started.
	EvictedPersisted int64 `json:"evictedPersisted,omitempty"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the error payload: the HTTP status and a message.
type ErrorBody struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// --- handlers ---

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.APIVersion != "" && req.APIVersion != advisor.APIVersion {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("unsupported apiVersion %q (this server speaks %q)",
			req.APIVersion, advisor.APIVersion))
		return
	}
	if req.Workload == "" {
		s.error(w, http.StatusBadRequest, "workload is required")
		return
	}
	name := req.Name
	if name == "" {
		name = "workload"
	}
	wl, err := advisor.ParseWorkload(name, req.Workload)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(wl.Queries) == 0 {
		s.error(w, http.StatusBadRequest, "workload has no queries")
		return
	}
	// Reserve a slot before the expensive Open so concurrent creates
	// cannot overshoot MaxSessions between check and insert.
	s.mu.Lock()
	if s.opts.MaxSessions > 0 && len(s.sessions)+s.reserved >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.error(w, http.StatusTooManyRequests, fmt.Sprintf("session limit %d reached", s.opts.MaxSessions))
		return
	}
	s.reserved++
	s.mu.Unlock()
	sess, err := s.adv.Open(r.Context(), wl)
	s.mu.Lock()
	s.reserved--
	if err != nil {
		s.mu.Unlock()
		// The workload text already parsed; a failure here is the
		// candidate pipeline's (stats, optimizer, empty store), which
		// is the server's side of the contract, not the client's.
		s.error(w, statusFor(err), err.Error())
		return
	}
	s.seq++
	e := &session{id: fmt.Sprintf("s%d", s.seq), sess: sess, lastUsed: s.opts.Now()}
	s.sessions[e.id] = e
	s.mu.Unlock()
	s.json(w, http.StatusCreated, s.info(e))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*session, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	list := SessionList{APIVersion: advisor.APIVersion, Sessions: []SessionInfo{}}
	for _, e := range entries {
		list.Sessions = append(list.Sessions, s.info(e))
	}
	sort.Slice(list.Sessions, func(i, j int) bool { return list.Sessions[i].ID < list.Sessions[j].ID })
	s.json(w, http.StatusOK, list)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	s.json(w, http.StatusOK, s.info(e))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	// Explicit DELETE also discards the ID-keyed snapshot file: the
	// client is done with this ID, so lazy resume must not resurrect
	// it. This holds even when the session is only on disk (evicted
	// from memory after a persist), in which case the delete of the
	// file is the whole close.
	onDisk := false
	if e == nil && s.snapshotsOn() && validSessionID(id) {
		_, statErr := os.Stat(s.sessionSnapshotPath(id))
		onDisk = statErr == nil
	}
	s.removeSessionSnapshot(id)
	if e == nil {
		if onDisk {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		s.error(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	e.sess.Close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	// Admission control before any work: searches are CPU-bound, so
	// requests past the in-flight bound are bounced with 429 and a
	// Retry-After hint instead of piling onto an unbounded backlog.
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if max := s.opts.MaxInFlight; max > 0 && n > int64(max) {
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusTooManyRequests, fmt.Sprintf("recommendation limit reached (%d in flight)", max))
		return
	}
	// Resolve and touch atomically under the server lock: from here the
	// session counts as active, so the janitor cannot evict it while
	// the body is still being read or the search runs.
	e := s.acquire(w, r)
	if e == nil {
		return
	}
	defer func() { e.done(s.opts.Now()) }()
	var req advisor.RecommendRequest
	if !s.decode(w, r, &req) {
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.recommendStream(w, r, e, req)
		return
	}
	resp, err := e.sess.Recommend(r.Context(), req)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		s.error(w, code, err.Error())
		return
	}
	s.json(w, http.StatusOK, resp)
}

// recommendStream serves one recommendation as a Server-Sent-Events
// stream: one SSE message per advisor.Event, the event type in the SSE
// "event" field and the JSON payload in "data", flushed as emitted so
// search progress reaches the client before the final result.
func (s *Server) recommendStream(w http.ResponseWriter, r *http.Request, e *session, req advisor.RecommendRequest) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.error(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for ev := range e.sess.RecommendStream(r.Context(), req) {
		data, err := json.Marshal(ev)
		if err != nil {
			data, _ = json.Marshal(advisor.Event{Type: advisor.EventError, Seq: ev.Seq, Error: err.Error()})
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		fl.Flush()
	}
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	s.json(w, http.StatusOK, StrategyList{
		APIVersion: advisor.APIVersion,
		Default:    advisor.DefaultStrategy(),
		Strategies: advisor.Strategies(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		APIVersion: advisor.APIVersion,
		Status:     "ok",
		Sessions:   s.SessionCount(),
		UptimeMS:   int64(s.opts.Now().Sub(s.start) / time.Millisecond),
		InFlight:   s.InFlight(),
	}
	if state, _, ok := s.adv.Resilience(); ok {
		h.Breaker = state
		if s.adv.Degraded() {
			h.Status = "degraded"
		}
	}
	if s.snapshotsOn() {
		h.SnapshotDir = s.adv.SnapshotDir()
		h.SnapshotFiles = s.snapshotFileCount()
		h.EvictedPersisted = s.EvictedPersisted()
	}
	s.json(w, http.StatusOK, h)
}

// --- helpers ---

// lookup resolves the {id} path segment, answering 404 itself when the
// session does not exist (closed or evicted sessions are gone from the
// map, so they 404 too — unless durable sessions can resume the ID from
// its snapshot file).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.sessions[id]
	s.mu.Unlock()
	if e == nil {
		e = s.resume(r.Context(), id)
	}
	if e == nil {
		s.error(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
	}
	return e
}

// acquire is lookup plus touch in one critical section with the
// eviction sweep: a request that resolved its session is marked active
// before EvictIdle could consider the entry, closing the window where a
// live request lands on a just-evicted session. Callers must pair it
// with session.done. An ID missing from memory but present in the
// snapshot directory is resumed first, then acquired.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	for {
		s.mu.Lock()
		e := s.sessions[id]
		if e != nil {
			e.touch(s.opts.Now())
		}
		s.mu.Unlock()
		if e != nil {
			return e
		}
		if s.resume(r.Context(), id) == nil {
			s.error(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
			return nil
		}
		// Loop to touch the resumed entry under the lock: the janitor
		// must see it active before it can consider evicting it again.
	}
}

func (s *Server) info(e *session) SessionInfo {
	e.mu.Lock()
	lastUsed, active := e.lastUsed, e.active
	e.mu.Unlock()
	info := SessionInfo{
		APIVersion:  advisor.APIVersion,
		ID:          e.id,
		Workload:    e.sess.Workload(),
		Candidates:  e.sess.Candidates(),
		CreatedAtMS: e.sess.Created().UnixMilli(),
		LastUsedMS:  lastUsed.UnixMilli(),
		Active:      active,
	}
	s.snapshotStatus(e, &info)
	return info
}

// decode reads a JSON body into v, answering 400 on malformed input.
// An empty body decodes to the zero value (every request type has a
// useful zero form except session creation, which checks its required
// fields itself).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 10<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true // empty body = the zero request
		}
		s.error(w, http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// statusFor maps advisor errors to HTTP statuses: invalid requests and
// options are the client's fault; a closed session is gone; an open
// costing circuit breaker is a temporary outage worth retrying;
// everything else (recovered panics included) is a server-side failure.
func statusFor(err error) int {
	switch {
	case errors.Is(err, advisor.ErrInvalidRequest), errors.Is(err, advisor.ErrInvalidOption):
		return http.StatusBadRequest
	case errors.Is(err, advisor.ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, advisor.ErrCostServiceUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) json(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) error(w http.ResponseWriter, code int, msg string) {
	s.json(w, code, Error{Error: ErrorBody{Code: code, Message: msg}})
}
