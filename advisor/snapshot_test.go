package advisor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/advisor"
	"repro/internal/catalog"
)

// normalizeResp projects a response onto its deterministic content:
// everything except the volatile run-local counters (wall clock, cache
// and kernel deltas, per-run evaluation and search accounting, trace).
// The candidate space, configuration, DDL, exact costs, and the
// pipeline stats (restored verbatim from the snapshot) all remain.
func normalizeResp(t *testing.T, resp *advisor.RecommendResponse) string {
	t.Helper()
	c := *resp
	c.ElapsedMS = 0
	c.Cache = advisor.CacheStats{}
	c.Kernel = advisor.KernelStats{}
	c.Search = advisor.SearchStats{}
	c.Evaluations = 0
	c.Trace = nil
	b, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSnapshotRestoreParity is the restore-parity property suite: on
// the xmark, tpox, and paper workloads, for every registered strategy,
// a session restored from a snapshot recommends byte-identically to
// the session that saved it — and does so warm, with zero what-if
// evaluations.
func TestSnapshotRestoreParity(t *testing.T) {
	env, workloads := testWorkloads(t)
	ctx := context.Background()
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			adv, err := advisor.New(catalog.New(env.Store))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := adv.Open(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, strat := range advisor.Strategies() {
				resp, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: strat})
				if err != nil {
					t.Fatalf("%s: %v", strat, err)
				}
				want[strat] = normalizeResp(t, resp)
			}
			var buf bytes.Buffer
			if err := sess.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}

			adv2, err := advisor.New(catalog.New(env.Store))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := adv2.Restore(ctx, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if restored.RestoredFrom() != "stream" {
				t.Errorf("RestoredFrom = %q, want stream", restored.RestoredFrom())
			}
			if restored.Workload() != w.Name {
				t.Errorf("Workload = %q, want %q", restored.Workload(), w.Name)
			}
			for _, strat := range advisor.Strategies() {
				resp, err := restored.Recommend(ctx, advisor.RecommendRequest{Strategy: strat})
				if err != nil {
					t.Fatalf("restored %s: %v", strat, err)
				}
				if resp.Evaluations != 0 {
					t.Errorf("%s: restored run issued %d what-if evaluations, want 0 (warm cache)",
						strat, resp.Evaluations)
				}
				if got := normalizeResp(t, resp); got != want[strat] {
					t.Errorf("%s: restored response differs:\n--- original ---\n%s\n--- restored ---\n%s",
						strat, want[strat], got)
				}
			}
		})
	}
}

// TestWithSnapshotDirWarmStart pins the durable-session loop: open
// cold, persist, and a later advisor's Open on the same workload
// warm-starts from the file and recommends identically with zero
// evaluations.
func TestWithSnapshotDirWarmStart(t *testing.T) {
	env, workloads := testWorkloads(t)
	w := workloads["xmark"]
	ctx := context.Background()
	dir := t.TempDir()

	adv1, err := advisor.New(catalog.New(env.Store), advisor.WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv1.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if sess.RestoredFrom() != "" {
		t.Fatalf("first open restored from %q, want cold", sess.RestoredFrom())
	}
	if !sess.LastSaved().IsZero() {
		t.Fatal("LastSaved non-zero before any persist")
	}
	resp1, err := sess.Recommend(ctx, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := sess.Persist()
	if err != nil {
		t.Fatal(err)
	}
	if want := adv1.WorkloadSnapshotPath(w); path != want {
		t.Errorf("Persist path = %q, want %q", path, want)
	}
	if sess.LastSaved().IsZero() {
		t.Error("LastSaved still zero after persist")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// Inspect without restoring: the file frames must be readable.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := advisor.InspectSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Candidates == 0 || info.Atoms == 0 {
		t.Errorf("inspect reports empty snapshot: %+v", info)
	}

	// A new advisor over the same catalog and directory warm-starts.
	adv2, err := advisor.New(catalog.New(env.Store), advisor.WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := adv2.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.RestoredFrom() != path {
		t.Fatalf("second open RestoredFrom = %q, want %q", sess2.RestoredFrom(), path)
	}
	resp2, err := sess2.Recommend(ctx, advisor.RecommendRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Evaluations != 0 {
		t.Errorf("warm-started run issued %d what-if evaluations, want 0", resp2.Evaluations)
	}
	if got, want := normalizeResp(t, resp2), normalizeResp(t, resp1); got != want {
		t.Errorf("warm-started response differs:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	// Persisting the restored session overwrites the same file.
	if _, err := sess2.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFallsBackColdOnMismatch: a snapshot taken under different
// options must not warm-start a mismatched advisor; Open silently goes
// cold instead of failing.
func TestOpenFallsBackColdOnMismatch(t *testing.T) {
	env, workloads := testWorkloads(t)
	w := workloads["paper"]
	ctx := context.Background()
	dir := t.TempDir()

	adv1, err := advisor.New(catalog.New(env.Store), advisor.WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv1.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Persist(); err != nil {
		t.Fatal(err)
	}

	adv2, err := advisor.New(catalog.New(env.Store),
		advisor.WithSnapshotDir(dir), advisor.WithRules("none"))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := adv2.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.RestoredFrom() != "" {
		t.Errorf("mismatched advisor warm-started from %q, want cold open", sess2.RestoredFrom())
	}
	if _, err := sess2.Recommend(ctx, advisor.RecommendRequest{}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreTypedErrors pins the facade error surface: garbage is
// ErrNotSnapshot, a flipped byte is ErrSnapshotCorrupt, and a
// mismatched advisor restoring explicitly gets ErrSnapshotMismatch.
func TestRestoreTypedErrors(t *testing.T) {
	env, workloads := testWorkloads(t)
	w := workloads["xmark"]
	ctx := context.Background()

	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Restore(ctx, bytes.NewReader([]byte("no snapshot here"))); !errors.Is(err, advisor.ErrNotSnapshot) {
		t.Errorf("Restore(garbage) = %v, want ErrNotSnapshot", err)
	}

	sess, err := adv.Open(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte past the header: the section checksum must
	// catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if _, err := adv.Restore(ctx, bytes.NewReader(bad)); !errors.Is(err, advisor.ErrSnapshotCorrupt) {
		t.Errorf("Restore(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}

	mismatched, err := advisor.New(catalog.New(env.Store), advisor.WithRules("none"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatched.Restore(ctx, bytes.NewReader(raw)); !errors.Is(err, advisor.ErrSnapshotMismatch) {
		t.Errorf("Restore(mismatched options) = %v, want ErrSnapshotMismatch", err)
	}

	// RestoreFile on a missing path surfaces the os error.
	if _, err := adv.RestoreFile(ctx, filepath.Join(t.TempDir(), "missing.xsnap")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("RestoreFile(missing) = %v, want ErrNotExist", err)
	}
}

// TestPersistWithoutDir: Persist needs WithSnapshotDir.
func TestPersistWithoutDir(t *testing.T) {
	env, workloads := testWorkloads(t)
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.Open(context.Background(), workloads["paper"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Persist(); !errors.Is(err, advisor.ErrNoSnapshotDir) {
		t.Errorf("Persist = %v, want ErrNoSnapshotDir", err)
	}
}

// TestSnapshotClosedSession: snapshot operations respect Close.
func TestSnapshotClosedSession(t *testing.T) {
	env, workloads := testWorkloads(t)
	adv, err := advisor.New(catalog.New(env.Store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adv.Open(context.Background(), workloads["paper"])
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	var buf bytes.Buffer
	if err := sess.Snapshot(&buf); !errors.Is(err, advisor.ErrSessionClosed) {
		t.Errorf("Snapshot on closed session = %v, want ErrSessionClosed", err)
	}
}
