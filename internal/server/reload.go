package server

import (
	"context"
	"fmt"
	"os"
	"time"

	"xseq"
)

// Reload loads Config.IndexPath into a fresh snapshot and atomically swaps
// it in; queries started before the swap finish on the old snapshot,
// queries started after see the new one, and nothing blocks. On any load
// failure — the file is corrupt, truncated, missing, or violates
// Config.ExpectShards — the old snapshot stays published and keeps
// answering; the error is recorded for /healthz and returned. cmd/xseqd
// wires this to SIGHUP; WatchFile calls it on mtime change.
func (s *Server) Reload() error {
	if s.swap == nil {
		return fmt.Errorf("server: reload applies to static snapshot mode only")
	}
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	mtime, size := statFile(s.cfg.IndexPath)
	ix, err := openSnapshot(s.cfg.IndexPath, s.cfg.ExpectLayout == xseq.LayoutFlat)
	if err == nil {
		// prepareSnapshot verifies integrity (mapped snapshots fully, before
		// any query can hit the damage) and re-instruments the replacement:
		// a fresh, empty query cache — the swap itself is the invalidation;
		// readers on the old snapshot keep its cache, whose entries are
		// correct for that corpus — and, for flat, page accounting.
		if perr := prepareSnapshot(&s.cfg, ix); perr != nil {
			_ = ix.Close()
			err = perr
		}
	}
	if err == nil {
		s.swap.Swap(ix)
	}
	cur := s.swap.Current()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reloads++
	if err != nil {
		s.reloadFailures++
		s.lastReloadErr = err
		s.cfg.Logf("server: reload of %s failed (still serving previous snapshot): %v", s.cfg.IndexPath, err)
		return err
	}
	s.lastReloadErr = nil
	s.loadedAt = time.Now()
	s.snapMTime, s.snapSize = mtime, size
	s.cfg.Logf("server: reloaded %s: %d documents", s.cfg.IndexPath, cur.Stats().Documents)
	return nil
}

// WatchFile polls Config.IndexPath every interval and calls Reload when
// the file's mtime or size changes, until ctx is cancelled. A failed
// reload (recorded in /healthz) is retried on the next observed change —
// a rewritten-but-corrupt file does not wedge the watcher.
func (s *Server) WatchFile(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	w := &task{name: "watch " + s.cfg.IndexPath, step: s.watchStep, pause: interval, logf: s.cfg.Logf}
	w.run(ctx)
}

// watchStep reloads the snapshot if it changed since the last look. It
// never fails: Reload records its own failures, and one bad file version
// is attempted once, not every tick.
func (s *Server) watchStep(context.Context) error {
	mtime, size := statFile(s.cfg.IndexPath)
	if mtime.IsZero() {
		return nil // transiently missing (mid-rename); keep serving
	}
	s.mu.Lock()
	changed := !mtime.Equal(s.snapMTime) || size != s.snapSize
	s.snapMTime, s.snapSize = mtime, size
	s.mu.Unlock()
	if changed {
		_ = s.Reload()
	}
	return nil
}

// statFile reports path's mtime and size, zero values when unreadable.
func statFile(path string) (time.Time, int64) {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}, 0
	}
	return fi.ModTime(), fi.Size()
}
