package advisor

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// SnapshotExt is the file extension session snapshot files use.
const SnapshotExt = ".xsnap"

// Snapshot-related sentinels, re-exported so facade callers can match
// with errors.Is without importing internal packages.
var (
	// ErrNoSnapshotDir is returned by Session.Persist when the advisor
	// was built without WithSnapshotDir.
	ErrNoSnapshotDir = fmt.Errorf("advisor: no snapshot directory configured")
	// ErrSnapshotMismatch: the snapshot is well-formed but does not fit
	// this advisor — different options, or the catalog's statistics
	// changed since the save, so the cached costs would be stale.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	// ErrSnapshotCorrupt: the snapshot failed structural validation
	// (bad checksum, truncated frame, dangling cross-reference).
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrNotSnapshot: the input is not a session snapshot at all.
	ErrNotSnapshot = snapshot.ErrNotSnapshot
)

// SnapshotInfo describes a snapshot file without restoring it: format
// version, per-section sizes, and the section cardinalities.
type SnapshotInfo = snapshot.Info

// InspectSnapshot reads only a snapshot's framing: cheap enough for
// status endpoints and the xdb snapshot inspect command, and it
// verifies every checksum on the way.
func InspectSnapshot(r io.Reader) (*SnapshotInfo, error) { return snapshot.Inspect(r) }

// WithSnapshotDir enables durable sessions: Open first tries to
// warm-start from the workload's snapshot file in dir (falling back to
// a cold prepare on any miss or mismatch), Session.Persist writes
// there, and server mode persists sessions before evicting them and on
// graceful shutdown. The directory is created if missing.
func WithSnapshotDir(dir string) Option {
	return func(c *config) { c.snapshotDir = dir }
}

// SnapshotDir is the advisor's snapshot directory ("" when durable
// sessions are off).
func (a *Advisor) SnapshotDir() string { return a.cfg.snapshotDir }

// WorkloadSnapshotPath is the path Open and Persist use for this
// workload's snapshot: keyed by the workload's name and a fingerprint
// of its full canonical text, so distinct workloads sharing a name
// never collide. Empty without WithSnapshotDir.
func (a *Advisor) WorkloadSnapshotPath(w *Workload) string {
	if a.cfg.snapshotDir == "" {
		return ""
	}
	return filepath.Join(a.cfg.snapshotDir, workloadSnapshotName(w))
}

func workloadSnapshotName(w *Workload) string {
	h := fnv.New64a()
	io.WriteString(h, w.Format())
	name := w.Name
	if name == "" {
		name = "workload"
	}
	clean := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			clean = append(clean, r)
		default:
			clean = append(clean, '_')
		}
	}
	return fmt.Sprintf("wl-%s-%016x%s", string(clean), h.Sum64(), SnapshotExt)
}

// Restore rebuilds a session from a snapshot stream previously written
// by Session.Snapshot. The restored session serves recommendations
// byte-identical to the one that saved — the candidate space and the
// what-if cache atoms come back warm, and the benefit matrix is rebuilt
// from those atoms, so neither Restore nor the first Recommend issues
// cost-service calls. Restore fails with
// ErrNotSnapshot / ErrSnapshotCorrupt for bad input and
// ErrSnapshotMismatch when the snapshot was taken under different
// options or the catalog's statistics have since changed.
func (a *Advisor) Restore(ctx context.Context, r io.Reader) (*Session, error) {
	return a.restore(ctx, r, "stream")
}

// RestoreFile is Restore from a snapshot file.
func (a *Advisor) RestoreFile(ctx context.Context, path string) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return a.restore(ctx, f, path)
}

func (a *Advisor) restore(ctx context.Context, r io.Reader, source string) (*Session, error) {
	prep, err := a.core.LoadPrepared(ctx, r)
	if err != nil {
		return nil, err
	}
	w := prep.Workload()
	return &Session{
		adv:          a,
		prep:         prep,
		name:         w.Name,
		created:      time.Now(),
		snapPath:     a.WorkloadSnapshotPath(w),
		restoredFrom: source,
	}, nil
}

// tryRestore is Open's warm-start path: restore the workload's snapshot
// file if one exists and matches both this advisor and the requested
// workload. Any failure — missing file, corruption, option or stats
// mismatch, or a (name, fingerprint) collision on a different workload
// — means a cold open; durable sessions degrade, never fail.
func (a *Advisor) tryRestore(ctx context.Context, w *Workload) *Session {
	path := a.WorkloadSnapshotPath(w)
	if path == "" {
		return nil
	}
	sess, err := a.RestoreFile(ctx, path)
	if err != nil {
		return nil
	}
	if sess.prep.Workload().Format() != w.Format() {
		return nil
	}
	return sess
}

// Snapshot serializes the session's prepared state — candidate space
// and containment DAG, pattern table, and the session's completed
// what-if cache atoms — to w in the versioned format of
// internal/snapshot. It carries no benefit matrix: Restore rebuilds it
// from the atoms.
func (s *Session) Snapshot(w io.Writer) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	return s.prep.Save(w)
}

// SnapshotToFile writes the session snapshot to path atomically: a
// temporary file in the destination directory is written, synced, and
// renamed into place, so readers see either the old snapshot or the
// complete new one, never a torn write.
func (s *Session) SnapshotToFile(path string) error { return s.writeSnapshot(path) }

// Persist writes the session to its snapshot file (the same file Open
// warm-starts from), and to each of the also paths, and returns the
// snapshot file's path. One encoding serves every file, so all are
// byte-identical. It fails with ErrNoSnapshotDir when the advisor has
// no snapshot directory.
func (s *Session) Persist(also ...string) (string, error) {
	if s.snapPath == "" {
		return "", ErrNoSnapshotDir
	}
	if err := s.writeSnapshot(append([]string{s.snapPath}, also...)...); err != nil {
		return "", err
	}
	return s.snapPath, nil
}

// writeSnapshot encodes the session once and writes the bytes to each
// path as SnapshotToFile describes.
func (s *Session) writeSnapshot(paths ...string) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.prep.Save(&buf); err != nil {
		return err
	}
	for _, path := range paths {
		if err := writeFileAtomic(path, buf.Bytes()); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.lastSaved = time.Now()
	s.mu.Unlock()
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".xsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RestoredFrom reports where the session was warm-started from: the
// snapshot path (or "stream" for Restore), "" for a cold open.
func (s *Session) RestoredFrom() string { return s.restoredFrom }

// LastSaved is the time of the session's last successful persist (zero
// if never persisted in this process).
func (s *Session) LastSaved() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSaved
}
