package server

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xseq/internal/telemetry"
)

// Snapshot transfer headers: the serving side advertises the WAL sequence
// number the checkpoint covers and its CRC-32 (IEEE) so a re-seeding
// follower can verify the download end-to-end before swapping it in.
const (
	headerSnapSeq = "X-Snapshot-Seq"
	headerSnapCRC = "X-Snapshot-Crc32"
)

// snapshotMeta identifies the checkpoint file /snapshot currently serves.
// Checkpoint writes only ever replace the path by atomic rename, so an
// opened fd's content is immutable: the FileInfo recorded here pins the
// exact file the size/CRC/seq describe, and os.SameFile detects a newer
// checkpoint landing between the metadata read and the open.
type snapshotMeta struct {
	seq  uint64
	size int64
	crc  uint32
	fi   os.FileInfo
	at   time.Time
}

// checkpointer runs the automatic checkpoint policy as a supervised
// task: it samples the WAL and, once it grows past the configured entry or
// byte bound, compacts the index, snapshots it to CheckpointPath, and
// rotates the log. A failed round leaves serving on the unrotated log.
type checkpointer struct {
	s    *Server
	task *task

	snapReqs atomic.Int64 // GET /snapshot requests over the server's life

	mu    sync.Mutex
	meta  *snapshotMeta
	count int64
}

func newCheckpointer(s *Server) *checkpointer {
	c := &checkpointer{s: s}
	poll := s.cfg.checkpointPoll
	lo, hi := pollBackoff(poll)
	c.task = &task{
		name: "checkpoint to " + s.cfg.CheckpointPath, step: c.step,
		pause: poll, minBackoff: lo, maxBackoff: hi, logf: s.cfg.Logf,
		report: func(h *healthResponse, lastErr string) { h.CheckpointError = lastErr },
		metrics: func(e *telemetry.Emit) {
			cs := c.stat()
			e.Counter("xseq_checkpoints_total", "", "Completed automatic checkpoints.", cs.Checkpoints)
			e.Counter("xseq_checkpoint_failures_total", "", "Failed checkpoint rounds.", cs.Failures)
			e.Gauge("xseq_checkpoint_snapshot_bytes", "", "Size of the last checkpoint snapshot.", float64(cs.SnapshotBytes))
			e.Counter("xseq_snapshot_requests_total", "", "GET /snapshot downloads served or shed.", cs.SnapshotRequests)
		},
	}
	return c
}

// describeSnapshot records the identity of the snapshot at path for
// /snapshot serving: size, content CRC, and file identity.
func describeSnapshot(path string, seq uint64) (*snapshotMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return nil, err
	}
	return &snapshotMeta{seq: seq, size: n, crc: h.Sum32(), fi: fi, at: time.Now()}, nil
}

// seed publishes a checkpoint file that already exists on disk (startup
// recovery) for /snapshot serving. seq is the WAL base the log was rotated
// to when it was written; a snapshot covering slightly more (rotation
// never landed) is fine — followers skip the overlap.
func (c *checkpointer) seed(path string, seq uint64) {
	meta, err := describeSnapshot(path, seq)
	if err != nil {
		c.s.cfg.Logf("server: existing checkpoint %s not servable yet: %v", path, err)
		return
	}
	c.mu.Lock()
	c.meta = meta
	c.mu.Unlock()
}

// step performs one compact+snapshot+rotate round once the log has
// outgrown the policy bounds, and publishes the result for /snapshot.
func (c *checkpointer) step(ctx context.Context) error {
	st := c.s.dyn.WALStats()
	if st == nil || st.Entries == 0 || st.LastError != "" {
		// A log with a sticky fsync failure refuses rotation; don't burn
		// checkpoint attempts against it.
		return nil
	}
	cfg := &c.s.cfg
	if (cfg.CheckpointEveryEntries <= 0 || st.Entries < cfg.CheckpointEveryEntries) &&
		(cfg.CheckpointEveryBytes <= 0 || st.SizeBytes < cfg.CheckpointEveryBytes) {
		return nil
	}
	seq, err := c.s.dyn.CheckpointAt(ctx, cfg.CheckpointPath)
	if err != nil {
		return err
	}
	meta, err := describeSnapshot(cfg.CheckpointPath, seq)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.meta = meta
	c.count++
	n := c.count
	c.mu.Unlock()
	cfg.Logf("server: checkpoint #%d at seq %d -> %s (%d bytes, crc %08x)", n, seq, cfg.CheckpointPath, meta.size, meta.crc)
	return nil
}

// currentMeta returns the latest published snapshot's identity, nil
// before the first checkpoint (or seed).
func (c *checkpointer) currentMeta() *snapshotMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// checkpointStat is the /stats checkpoint section.
type checkpointStat struct {
	Path          string `json:"path"`
	EveryEntries  int    `json:"every_entries,omitempty"`
	EveryBytes    int64  `json:"every_bytes,omitempty"`
	Checkpoints   int64  `json:"checkpoints"`
	Failures      int64  `json:"failures"`
	LastError     string `json:"last_error,omitempty"`
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	SnapshotCRC32 uint32 `json:"snapshot_crc32"`
	// SnapshotRequests counts GET /snapshot downloads served or shed.
	SnapshotRequests int64 `json:"snapshot_requests"`
}

func (c *checkpointer) stat() *checkpointStat {
	failures, lastErr := c.task.health()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &checkpointStat{
		Path:             c.s.cfg.CheckpointPath,
		EveryEntries:     c.s.cfg.CheckpointEveryEntries,
		EveryBytes:       c.s.cfg.CheckpointEveryBytes,
		Checkpoints:      c.count,
		Failures:         failures,
		LastError:        lastErr,
		SnapshotRequests: c.snapReqs.Load(),
	}
	if c.meta != nil {
		st.SnapshotSeq = c.meta.seq
		st.SnapshotBytes = c.meta.size
		st.SnapshotCRC32 = c.meta.crc
	}
	return st
}

// handleSnapshot streams the latest checkpoint to a re-seeding follower,
// with the sequence number and CRC it needs to verify the transfer and
// resume tailing. A bounded-concurrency gate sheds excess downloads with
// 429 + Retry-After so snapshot transfers cannot starve queries.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.ckpt == nil {
		writeError(w, http.StatusNotFound, "no checkpoint service on this server (arm -checkpoint-every on a -wal primary)")
		return
	}
	s.ckpt.snapReqs.Add(1)
	select {
	case s.snapSem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", retryAfterSecs)
		writeError(w, http.StatusTooManyRequests, "too many concurrent snapshot downloads")
		return
	}
	defer func() { <-s.snapSem }()

	// Tie the opened fd to the metadata that describes that exact file: a
	// checkpoint landing between the metadata read and the open fails the
	// SameFile check and just means another round.
	for attempt := 0; attempt < 5; attempt++ {
		meta := s.ckpt.currentMeta()
		if meta == nil {
			writeError(w, http.StatusNotFound, "no checkpoint written yet; retry after the first rotation")
			return
		}
		f, err := os.Open(s.cfg.CheckpointPath)
		if err != nil {
			s.cfg.Logf("server: snapshot open %s: %v", s.cfg.CheckpointPath, err)
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("open checkpoint: %v", err))
			return
		}
		fi, err := f.Stat()
		if err != nil || !os.SameFile(fi, meta.fi) {
			f.Close()
			continue
		}
		w.Header().Set(headerSnapSeq, strconv.FormatUint(meta.seq, 10))
		w.Header().Set(headerSnapCRC, strconv.FormatUint(uint64(meta.crc), 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(meta.size, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, f)
		f.Close()
		return
	}
	w.Header().Set("Retry-After", retryAfterSecs)
	writeError(w, http.StatusServiceUnavailable, "checkpoint is being replaced; retry")
}

// fsyncDir fsyncs path's parent directory so a just-renamed file survives
// a crash of the directory entry itself.
func fsyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
