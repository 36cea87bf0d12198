package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/testleak"
)

// newDurableServer is newTestServer with a snapshot directory: the
// returned constructor builds a fresh Server over the same store and
// directory, simulating a daemon restart.
func newDurableServer(t *testing.T, dir string, opts server.Options) (*httptest.Server, *server.Server, string, func() (*httptest.Server, *server.Server)) {
	t.Helper()
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*httptest.Server, *server.Server) {
		adv, err := advisor.New(catalog.New(env.Store), advisor.WithSnapshotDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(adv, opts)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts, srv
	}
	ts, srv := build()
	return ts, srv, env.XMarkWorkload.Format(), build
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, res, wantStatus, v)
}

// TestEvictPersistsAndResumes pins the durable eviction loop: an idle
// session is persisted before eviction, the health report counts it,
// and the next request on its ID resumes it from disk — warm, so the
// recommendation issues zero what-if evaluations.
func TestEvictPersistsAndResumes(t *testing.T) {
	testleak.Check(t)
	now := time.Now()
	clock := func() time.Time { return now }
	dir := t.TempDir()
	ts, srv, wl, _ := newDurableServer(t, dir, server.Options{IdleTTL: time.Minute, Now: clock})

	info := openSession(t, ts, wl)
	if !info.Durable {
		t.Error("session not marked durable despite snapshot dir")
	}
	var warm advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend", advisor.RecommendRequest{}),
		http.StatusOK, &warm)

	now = now.Add(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if n := srv.EvictedPersisted(); n != 1 {
		t.Errorf("EvictedPersisted = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "session-"+info.ID+".xsnap")); err != nil {
		t.Fatalf("no ID-keyed snapshot after eviction: %v", err)
	}

	var health server.Health
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Sessions != 0 || health.EvictedPersisted != 1 || health.SnapshotDir != dir || health.SnapshotFiles == 0 {
		t.Errorf("health after eviction: %+v", health)
	}

	// The evicted ID answers, resumed from its snapshot, and the run is
	// warm: zero evaluations.
	var resumed advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend", advisor.RecommendRequest{}),
		http.StatusOK, &resumed)
	if resumed.Evaluations != 0 {
		t.Errorf("resumed recommend issued %d evaluations, want 0", resumed.Evaluations)
	}
	if got, want := resumed.DDL(), warm.DDL(); len(got) != len(want) {
		t.Errorf("resumed DDL %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("resumed DDL %v, want %v", got, want)
				break
			}
		}
	}
	var si server.SessionInfo
	getJSON(t, ts.URL+"/v1/sessions/"+info.ID, http.StatusOK, &si)
	if si.RestoredFrom == "" || !si.Durable || si.LastSavedMS == 0 {
		t.Errorf("resumed session info lacks snapshot status: %+v", si)
	}
}

// TestPersistWritesOneEncoding: a persist writes the ID-keyed and the
// workload-keyed file from one encoding, so the two are byte-identical
// (two encodings would each stamp their own creation time).
func TestPersistWritesOneEncoding(t *testing.T) {
	testleak.Check(t)
	dir := t.TempDir()
	ts, srv, wl, _ := newDurableServer(t, dir, server.Options{})
	info := openSession(t, ts, wl)
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/recommend", advisor.RecommendRequest{}),
		http.StatusOK, &advisor.RecommendResponse{})
	if n, err := srv.PersistAll(); n != 1 || err != nil {
		t.Fatalf("PersistAll = %d, %v; want 1, nil", n, err)
	}
	byID, err := os.ReadFile(filepath.Join(dir, "session-"+info.ID+advisor.SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	byWorkload, err := filepath.Glob(filepath.Join(dir, "wl-*"+advisor.SnapshotExt))
	if err != nil || len(byWorkload) != 1 {
		t.Fatalf("workload-keyed snapshot files %v (%v), want one", byWorkload, err)
	}
	wlBytes, err := os.ReadFile(byWorkload[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byID, wlBytes) {
		t.Errorf("ID-keyed (%d bytes) and workload-keyed (%d bytes) snapshots differ", len(byID), len(wlBytes))
	}
}

// TestShutdownPersistAllAndRestart: PersistAll saves every open
// session; a new server process over the same directory resumes them by
// ID and never mints a colliding ID.
func TestShutdownPersistAllAndRestart(t *testing.T) {
	testleak.Check(t)
	dir := t.TempDir()
	ts, srv, wl, build := newDurableServer(t, dir, server.Options{})

	a := openSession(t, ts, wl)
	b := openSession(t, ts, wl)
	// Run one recommendation on a so its snapshot carries the search's
	// cache atoms; the post-restart run can then be fully warm.
	var before advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts.URL+"/v1/sessions/"+a.ID+"/recommend", advisor.RecommendRequest{}),
		http.StatusOK, &before)
	if n, err := srv.PersistAll(); err != nil || n != 2 {
		t.Fatalf("PersistAll = %d, %v; want 2, nil", n, err)
	}

	// "Restart": a fresh server over the same store and directory.
	ts2, _ := build()
	var resp advisor.RecommendResponse
	decodeJSON(t, postJSON(t, ts2.URL+"/v1/sessions/"+a.ID+"/recommend", advisor.RecommendRequest{}),
		http.StatusOK, &resp)
	if resp.Evaluations != 0 {
		t.Errorf("post-restart recommend issued %d evaluations, want 0", resp.Evaluations)
	}
	var si server.SessionInfo
	getJSON(t, ts2.URL+"/v1/sessions/"+b.ID, http.StatusOK, &si)
	if si.ID != b.ID || si.RestoredFrom == "" {
		t.Errorf("restarted session info: %+v", si)
	}
	// New sessions on the restarted server continue past the persisted
	// sequence instead of shadowing s1/s2.
	fresh := openSession(t, ts2, wl)
	if fresh.ID == a.ID || fresh.ID == b.ID {
		t.Errorf("restarted server reissued persisted session ID %s", fresh.ID)
	}
	// Warm-started open: the workload was snapshotted on PersistAll, so
	// even the new session restores instead of re-running the pipeline.
	if fresh.RestoredFrom == "" {
		t.Errorf("fresh session on restarted server opened cold: %+v", fresh)
	}
}

// TestDeleteRemovesSnapshot: DELETE discards the ID-keyed file so the
// ID cannot be resumed, including when the session lives only on disk.
func TestDeleteRemovesSnapshot(t *testing.T) {
	testleak.Check(t)
	now := time.Now()
	clock := func() time.Time { return now }
	dir := t.TempDir()
	ts, srv, wl, _ := newDurableServer(t, dir, server.Options{IdleTTL: time.Minute, Now: clock})

	info := openSession(t, ts, wl)
	now = now.Add(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// On-disk only: DELETE still answers 204 and removes the file.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE evicted session = %d, want 204", res.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "session-"+info.ID+".xsnap")); !os.IsNotExist(err) {
		t.Errorf("snapshot file survives DELETE: %v", err)
	}
	getJSON(t, ts.URL+"/v1/sessions/"+info.ID, http.StatusNotFound, nil)
}

// TestEvictIdleConcurrentWithRecommendAndDelete stresses the sweep's
// persist-outside-the-lock window: two sweeps run over many idle
// durable sessions while other sessions are acquired by parked
// recommends or DELETEd. A session touched while the sweep persisted it
// must stay in memory with its request, a DELETEd session must not get
// its ID file back, and an untouched session must be evicted with its
// file intact even though a second sweep ran alongside.
func TestEvictIdleConcurrentWithRecommendAndDelete(t *testing.T) {
	testleak.Check(t)
	search.Register(blockingStrategy{})
	defer search.Unregister("test-block")
	var clockMu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	dir := t.TempDir()
	ts, srv, _, _ := newDurableServer(t, dir, server.Options{IdleTTL: time.Minute, Now: clock})
	wl := "q|1|for $i in collection(\"auction\")/site/regions/namerica/item where $i/quantity > 5 return $i/name"

	const perGroup = 6
	var touched, deleted, idle []string
	for i := 0; i < 3*perGroup; i++ {
		id := openSession(t, ts, wl).ID
		switch i % 3 {
		case 0:
			touched = append(touched, id)
		case 1:
			deleted = append(deleted, id)
		default:
			idle = append(idle, id)
		}
	}
	snapshotFile := func(id string) string { return filepath.Join(dir, "session-"+id+".xsnap") }
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	evicted := make(chan int, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evicted <- srv.EvictIdle()
		}()
	}
	var parked []<-chan struct{}
	for _, id := range touched {
		parked = append(parked, startBlockedRecommend(t, ctx, ts.URL+"/v1/sessions/"+id+"/recommend", false))
	}
	deleteStatus := make([]int, len(deleted))
	for i, id := range deleted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			res.Body.Close()
			deleteStatus[i] = res.StatusCode
		}()
	}
	wg.Wait()
	close(evicted)
	total := 0
	for n := range evicted {
		total += n
	}
	if total < len(idle) || total > 3*perGroup {
		t.Errorf("sweeps evicted %d sessions, want between %d and %d", total, len(idle), 3*perGroup)
	}

	// Every parked recommend holds its session: the entry it touched is
	// the one in memory, so the session reports one active request. An
	// entry evicted after its touch would be resumed here with none.
	for _, id := range touched {
		waitFor(t, "parked recommend on "+id, func() bool {
			var info server.SessionInfo
			getJSON(t, ts.URL+"/v1/sessions/"+id, http.StatusOK, &info)
			return info.Active == 1
		})
	}
	for i, id := range deleted {
		if deleteStatus[i] != http.StatusNoContent {
			t.Errorf("DELETE %s = %d, want 204", id, deleteStatus[i])
		}
		if _, err := os.Stat(snapshotFile(id)); !os.IsNotExist(err) {
			t.Errorf("deleted session %s has an ID file after the sweep: %v", id, err)
		}
		getJSON(t, ts.URL+"/v1/sessions/"+id, http.StatusNotFound, nil)
	}
	for _, id := range idle {
		if _, err := os.Stat(snapshotFile(id)); err != nil {
			t.Errorf("evicted session %s lost its ID file: %v", id, err)
		}
	}
	cancel()
	for _, done := range parked {
		<-done
	}
}

// TestResumeRejectsCrookedIDs: lazy resume never touches the filesystem
// for IDs the server could not have generated, so a crafted path
// segment cannot escape the snapshot directory.
func TestResumeRejectsCrookedIDs(t *testing.T) {
	testleak.Check(t)
	dir := t.TempDir()
	ts, _, _, _ := newDurableServer(t, dir, server.Options{})
	for _, id := range []string{"..%2F..%2Fetc", "s12x", "x1", "s"} {
		getJSON(t, ts.URL+"/v1/sessions/"+id, http.StatusNotFound, nil)
	}
}

// TestNoSnapshotDirUnchanged: without a snapshot directory the durable
// fields stay absent and eviction still answers 404.
func TestNoSnapshotDirUnchanged(t *testing.T) {
	testleak.Check(t)
	now := time.Now()
	clock := func() time.Time { return now }
	ts, srv, wl := newTestServer(t, server.Options{IdleTTL: time.Minute, Now: clock})
	info := openSession(t, ts, wl)
	if info.Durable || info.RestoredFrom != "" || info.LastSavedMS != 0 {
		t.Errorf("durable fields set without snapshot dir: %+v", info)
	}
	now = now.Add(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if srv.EvictedPersisted() != 0 {
		t.Error("EvictedPersisted counted without snapshot dir")
	}
	getJSON(t, ts.URL+"/v1/sessions/"+info.ID, http.StatusNotFound, nil)
	var health server.Health
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health.SnapshotDir != "" || health.SnapshotFiles != 0 || health.EvictedPersisted != 0 {
		t.Errorf("health reports snapshots without a dir: %+v", health)
	}
}
