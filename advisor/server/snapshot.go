// Durable sessions for server mode. When the advisor has a snapshot
// directory (advisor.WithSnapshotDir, xiad -snapshot-dir), the server
// writes each session's prepared state to an ID-keyed snapshot file
// before evicting it and on graceful shutdown, and lazily resumes a
// session from its file when a request addresses an ID that is no
// longer in memory — so a client holding a session URL across an idle
// eviction or a daemon restart keeps its warm session instead of a 404,
// and the first recommendation after resume issues no what-if
// evaluations.

package server

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/advisor"
)

// sessionSnapshotPrefix names ID-keyed session snapshot files:
// session-<id>.xsnap in the advisor's snapshot directory.
const sessionSnapshotPrefix = "session-"

// snapshotsOn reports whether durable sessions are configured.
func (s *Server) snapshotsOn() bool { return s.adv.SnapshotDir() != "" }

// sessionSnapshotPath is the ID-keyed snapshot file for a session.
func (s *Server) sessionSnapshotPath(id string) string {
	return filepath.Join(s.adv.SnapshotDir(), sessionSnapshotPrefix+id+advisor.SnapshotExt)
}

// EvictedPersisted counts sessions that were persisted to their
// snapshot file on eviction (the evicted_persisted health counter).
func (s *Server) EvictedPersisted() int64 { return s.evictedPersisted.Load() }

// persistSession writes the session to both snapshot files from one
// encoding: the workload-keyed file a later Open on the same workload
// warm-starts from, and the ID-keyed file lazy resume reads.
func (s *Server) persistSession(e *session) error {
	if !s.snapshotsOn() {
		return nil
	}
	_, err := e.sess.Persist(s.sessionSnapshotPath(e.id))
	return err
}

// PersistAll persists every open session (graceful shutdown), returning
// how many were saved and the first error. Sessions that fail to
// persist are skipped, not closed: shutdown should save as much as it
// can.
func (s *Server) PersistAll() (int, error) {
	if !s.snapshotsOn() {
		return 0, nil
	}
	s.mu.Lock()
	entries := make([]*session, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	n := 0
	var first error
	for _, e := range entries {
		if err := s.persistSession(e); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		n++
	}
	return n, first
}

// validSessionID reports whether id has the server's generated form
// ("s" + digits). Lazy resume only touches files for such IDs, so a
// crafted path segment can never escape the snapshot directory.
func validSessionID(id string) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// resume tries to lazily rebuild session id from its ID-keyed snapshot
// file. It returns nil — request answers 404, exactly as without
// durable sessions — when snapshots are off, the ID is not one this
// server could have generated, the file is missing or does not fit the
// advisor anymore, or the server is at its session bound. A concurrent
// resume of the same ID wins harmlessly: the loser's restored session
// is closed and the winner's entry returned.
func (s *Server) resume(ctx context.Context, id string) *session {
	if !s.snapshotsOn() || !validSessionID(id) {
		return nil
	}
	sess, err := s.adv.RestoreFile(ctx, s.sessionSnapshotPath(id))
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.sessions[id]; cur != nil {
		sess.Close()
		return cur
	}
	if s.opts.MaxSessions > 0 && len(s.sessions)+s.reserved >= s.opts.MaxSessions {
		sess.Close()
		return nil
	}
	e := &session{id: id, sess: sess, lastUsed: s.opts.Now()}
	s.sessions[id] = e
	return e
}

// scanSnapshotSeq reads the snapshot directory and advances the session
// ID sequence past every persisted session-s<n>.xsnap, so IDs minted
// after a restart never collide with sessions a previous process
// persisted (a collision would silently shadow the old session's file).
func (s *Server) scanSnapshotSeq() {
	if !s.snapshotsOn() {
		return
	}
	names, err := filepath.Glob(filepath.Join(s.adv.SnapshotDir(), sessionSnapshotPrefix+"s*"+advisor.SnapshotExt))
	if err != nil {
		return
	}
	max := int64(0)
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), advisor.SnapshotExt)
		id := strings.TrimPrefix(base, sessionSnapshotPrefix)
		if !validSessionID(id) {
			continue
		}
		if n, err := strconv.ParseInt(id[1:], 10, 64); err == nil && n > max {
			max = n
		}
	}
	s.mu.Lock()
	if max > s.seq {
		s.seq = max
	}
	s.mu.Unlock()
}

// removeSessionSnapshot deletes a session's ID-keyed snapshot file
// (explicit DELETE means the client is done with the ID; keeping the
// file would resurrect a deliberately closed session).
func (s *Server) removeSessionSnapshot(id string) {
	if !s.snapshotsOn() {
		return
	}
	os.Remove(s.sessionSnapshotPath(id))
}

// snapshotStatus fills a SessionInfo's durability fields. A session
// that has not persisted in this process but was resumed from a file
// reports the file's modification time — the save was a previous
// incarnation's, but it is still this state's last save.
func (s *Server) snapshotStatus(e *session, info *SessionInfo) {
	if !s.snapshotsOn() {
		return
	}
	info.Durable = true
	info.RestoredFrom = e.sess.RestoredFrom()
	if t := e.sess.LastSaved(); !t.IsZero() {
		info.LastSavedMS = t.UnixMilli()
	} else if info.RestoredFrom != "" {
		if fi, err := os.Stat(info.RestoredFrom); err == nil {
			info.LastSavedMS = fi.ModTime().UnixMilli()
		}
	}
}

// snapshotFileCount counts snapshot files in the directory, for the
// health report (best effort; 0 when snapshots are off or on error).
func (s *Server) snapshotFileCount() int {
	if !s.snapshotsOn() {
		return 0
	}
	names, err := filepath.Glob(filepath.Join(s.adv.SnapshotDir(), "*"+advisor.SnapshotExt))
	if err != nil {
		return 0
	}
	return len(names)
}
