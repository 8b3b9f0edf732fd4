package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an operation on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// ErrRotated reports a ReadFrames request for sequence numbers that a
// checkpoint already rotated out of the log; the caller needs a snapshot,
// not the log. The primary's /wal endpoint maps it to 410 Gone.
var ErrRotated = errors.New("wal: requested entries rotated into a checkpoint")

// Options tunes Open.
type Options struct {
	// SyncWindow batches fsyncs (group commit): an append becomes durable —
	// and its WaitDurable returns — at the next window boundary, so under
	// concurrent load one fsync acknowledges a whole batch. 0 fsyncs on
	// every append (still batching naturally under contention: an append
	// whose bytes an earlier caller's fsync already covered skips its own).
	SyncWindow time.Duration
	// Strict makes Open fail with a *CorruptError on a torn or
	// checksum-bad tail instead of truncating the file at the tear.
	Strict bool
	// Apply, when non-nil, is called for every entry replayed during Open,
	// in sequence order. An Apply error aborts Open. The payload aliases a
	// scratch buffer — copy it before retaining.
	Apply func(seq uint64, payload []byte) error
}

// ReplayStats reports what Open found in an existing log.
type ReplayStats struct {
	// Entries is the number of valid entries replayed.
	Entries int
	// BaseSeq is the file's checkpoint base: entries <= BaseSeq were
	// rotated into a snapshot before this log was written.
	BaseSeq uint64
	// LastSeq is the last valid sequence number in the log (== BaseSeq
	// when the log holds no entries).
	LastSeq uint64
	// TruncatedBytes is the length of the torn tail dropped by lenient
	// recovery, 0 for a clean log.
	TruncatedBytes int64
}

// WAL is an append-only, checksummed, fsync-batched log. One writer
// discipline: appends are serialized internally, and concurrent appenders
// share group commits; readers (ReadFrames, WaitSynced) are safe alongside
// appends. All methods are safe for concurrent use.
type WAL struct {
	path   string
	window time.Duration

	// Lock order: fsMu (fsync/rotation/close of the fd) before mu (file
	// writes and the seq/offset index) before sc (durability state). Each
	// may also be taken alone.
	fsMu    sync.Mutex
	mu      sync.Mutex
	f       *os.File
	size    int64
	baseSeq uint64
	lastSeq uint64
	seqs    []uint64 // seqs[i] is the i-th entry's sequence number
	offs    []int64  // offs[i] is the i-th entry's file offset
	closed  bool
	scratch []byte // frame encode buffer, reused under mu

	sc         sync.Mutex // durability state
	cond       *sync.Cond
	syncedSeq  uint64
	syncedSize int64
	syncErr    error // sticky: after a failed fsync no durability promise holds
	scClosed   bool  // sc-guarded mirror of closed, for WaitSynced's loop

	appends   atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64

	closeOnce sync.Once
	closeErr  error
	stopSync  chan struct{}
	syncDone  chan struct{}
}

// Open opens (or creates) the log at path, replays every valid entry
// through opts.Apply, recovers the tail (truncate-at-tear by default,
// *CorruptError under opts.Strict), and returns the WAL positioned for
// appending. An uninterpretable file header is always a *CorruptError:
// with an untrusted base sequence number no entry can be trusted either.
func Open(path string, opts Options) (*WAL, ReplayStats, error) {
	// A crash mid-rotation can leave the staging file behind; it was never
	// renamed over the log, so it is dead weight.
	_ = os.Remove(path + ".rotating")

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	w := &WAL{path: path, window: opts.SyncWindow, f: f}
	w.cond = sync.NewCond(&w.sc)
	st, err := w.recover(opts)
	if err != nil {
		f.Close()
		return nil, st, err
	}
	if w.window > 0 {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, st, nil
}

// recover validates the header (writing a fresh one into an empty file),
// replays the entries, and truncates or rejects a torn tail.
func (w *WAL) recover(opts Options) (ReplayStats, error) {
	fi, err := w.f.Stat()
	if err != nil {
		return ReplayStats{}, fmt.Errorf("wal: stat %s: %w", w.path, err)
	}
	if fi.Size() == 0 {
		hdr := encodeHeader(0)
		if _, err := w.f.WriteAt(hdr, 0); err != nil {
			return ReplayStats{}, fmt.Errorf("wal: init %s: %w", w.path, err)
		}
		if err := w.f.Sync(); err != nil {
			return ReplayStats{}, fmt.Errorf("wal: init %s: %w", w.path, err)
		}
		if err := syncDir(w.path); err != nil {
			return ReplayStats{}, err
		}
		w.size, w.syncedSize = headerSize, headerSize
		return ReplayStats{}, nil
	}

	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(w.f, 0, fi.Size()), hdr); err != nil {
		return ReplayStats{}, &CorruptError{Path: w.path, Offset: 0, Reason: "truncated file header", Err: err}
	}
	base, err := decodeHeader(hdr)
	if err != nil {
		cerr := err.(*CorruptError)
		cerr.Path = w.path
		return ReplayStats{}, cerr
	}
	st := ReplayStats{BaseSeq: base, LastSeq: base}
	w.baseSeq, w.lastSeq = base, base

	rd := NewReader(io.NewSectionReader(w.f, headerSize, fi.Size()-headerSize), base)
	good := int64(headerSize)
	for {
		off := headerSize + rd.Offset()
		seq, payload, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrIncomplete) {
				var cerr *CorruptError
				if !errors.As(err, &cerr) {
					// A real I/O error — never truncate over a failing disk.
					return st, fmt.Errorf("wal: replay %s: %w", w.path, err)
				}
			}
			if opts.Strict {
				return st, &CorruptError{Path: w.path, Offset: off, Reason: "torn or corrupt tail (strict mode)", Err: err}
			}
			st.TruncatedBytes = fi.Size() - off
			if terr := w.f.Truncate(off); terr != nil {
				return st, fmt.Errorf("wal: truncate tear in %s: %w", w.path, terr)
			}
			if terr := w.f.Sync(); terr != nil {
				return st, fmt.Errorf("wal: truncate tear in %s: %w", w.path, terr)
			}
			break
		}
		if opts.Apply != nil {
			if aerr := opts.Apply(seq, payload); aerr != nil {
				return st, fmt.Errorf("wal: replay %s entry seq %d: %w", w.path, seq, aerr)
			}
		}
		w.seqs = append(w.seqs, seq)
		w.offs = append(w.offs, off)
		w.lastSeq = seq
		st.Entries++
		st.LastSeq = seq
		good = headerSize + rd.Offset()
	}
	w.size, w.syncedSize = good, good
	w.syncedSeq = w.lastSeq
	return st, nil
}

// syncLoop is the group-commit ticker: while the window is open, appends
// only buffer; each tick fsyncs everything written so far and wakes the
// appenders waiting on durability.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.window)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
		}
		_ = w.Sync()
	}
}

// WriteRecord appends payload under an explicit sequence number (which
// must exceed every sequence number already in the log) without waiting
// for durability; WaitDurable is the wait. A caller holds its own lock
// across the write and waits outside it: engine.Dynamic numbers and writes
// an insert under its serving mutex and waits after releasing it, so a
// slow fsync never blocks readers, and a follower writes replicated
// entries under the primary's numbering verbatim.
func (w *WAL) WriteRecord(seq uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(seq, payload)
}

// writeLocked frames and writes one entry at the current tail. On a write
// error nothing is recorded: the partial frame's bytes sit beyond w.size,
// where the next successful write overwrites them and crash recovery
// truncates them — either way they are invisible.
func (w *WAL) writeLocked(seq uint64, payload []byte) error {
	if w.closed {
		return ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return fmt.Errorf("wal: log failed, refusing append: %w", err)
	}
	if seq <= w.lastSeq {
		return fmt.Errorf("wal: sequence number %d not after last %d", seq, w.lastSeq)
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload of %d bytes exceeds cap", len(payload))
	}
	w.scratch = AppendEntry(w.scratch[:0], seq, payload)
	if _, err := w.f.WriteAt(w.scratch, w.size); err != nil {
		return fmt.Errorf("wal: append seq %d: %w", seq, err)
	}
	w.seqs = append(w.seqs, seq)
	w.offs = append(w.offs, w.size)
	w.size += int64(len(w.scratch))
	w.lastSeq = seq
	w.appends.Add(1)
	return nil
}

// stickyErr reports the recorded fsync failure, if any. After one, no
// durability promise holds for any buffered byte (the kernel may have
// dropped the dirty pages), so the log refuses further appends rather
// than acknowledge writes it cannot make durable.
func (w *WAL) stickyErr() error {
	w.sc.Lock()
	defer w.sc.Unlock()
	return w.syncErr
}

// Sync fsyncs everything appended so far and publishes the new durable
// watermark to waiters. Concurrent callers batch: one whose watermark an
// earlier fsync already covered returns without touching the disk. fsMu
// serializes the fsync against rotation's fd swap and Close's fd close.
func (w *WAL) Sync() error {
	w.fsMu.Lock()
	defer w.fsMu.Unlock()
	w.mu.Lock()
	target, size := w.lastSeq, w.size
	f, closed := w.f, w.closed
	w.mu.Unlock()
	if closed {
		return ErrClosed
	}
	w.sc.Lock()
	if w.syncErr != nil {
		err := w.syncErr
		w.sc.Unlock()
		return err
	}
	if w.syncedSeq >= target {
		w.sc.Unlock()
		return nil
	}
	w.sc.Unlock()
	err := f.Sync()
	w.syncs.Add(1)
	w.sc.Lock()
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = fmt.Errorf("wal: fsync %s: %w", w.path, err)
		}
		err = w.syncErr
	} else {
		if target > w.syncedSeq {
			w.syncedSeq = target
		}
		if size > w.syncedSize {
			w.syncedSize = size
		}
	}
	w.cond.Broadcast()
	w.sc.Unlock()
	return err
}

// WaitDurable blocks until the appended entry seq is fsynced, ctx ends,
// or the log fails. With no group-commit window it drives the fsync
// itself (batching with concurrent appenders); with one it waits for the
// sync loop's next tick.
func (w *WAL) WaitDurable(ctx context.Context, seq uint64) error {
	if w.window <= 0 {
		w.sc.Lock()
		done := w.syncedSeq >= seq && w.syncErr == nil
		w.sc.Unlock()
		if done {
			return nil
		}
		return w.Sync()
	}
	return w.WaitSynced(ctx, seq)
}

// WaitSynced blocks until the durable watermark reaches seq, ctx ends, or
// the log closes — the long-poll primitive behind the /wal endpoint (and
// the group-commit wait). Unlike WaitDurable it never fsyncs and seq need
// not exist yet.
func (w *WAL) WaitSynced(ctx context.Context, seq uint64) error {
	stop := context.AfterFunc(ctx, func() {
		w.sc.Lock()
		w.cond.Broadcast()
		w.sc.Unlock()
	})
	defer stop()
	w.sc.Lock()
	defer w.sc.Unlock()
	for w.syncedSeq < seq {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.scClosed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w.cond.Wait()
	}
	return nil
}

// ReadFrames returns raw framed entries with sequence numbers >= from out
// of the durable prefix of the log, ready to stream to a follower: up to
// maxBytes of frames (always at least one entry when any qualifies). It
// returns the frames, the count of entries included, and the sequence
// number of the last one (0 when none qualify yet). Asking for entries a
// checkpoint rotated away returns ErrRotated.
func (w *WAL) ReadFrames(from uint64, maxBytes int) (frames []byte, count int, last uint64, err error) {
	if from == 0 {
		from = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, 0, ErrClosed
	}
	// The durable watermark is read under mu so it is consistent with the
	// seq/offset index even across a concurrent rotation.
	w.sc.Lock()
	durableSeq, durableSize := w.syncedSeq, w.syncedSize
	w.sc.Unlock()
	if from <= w.baseSeq {
		return nil, 0, 0, fmt.Errorf("entries up to seq %d are checkpointed, first available is %d: %w",
			w.baseSeq, w.baseSeq+1, ErrRotated)
	}
	// First index with seqs[i] >= from (seqs are strictly increasing).
	lo, hi := 0, len(w.seqs)
	for lo < hi {
		mid := (lo + hi) / 2
		if w.seqs[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	end := start
	var startOff, endOff int64
	if start < len(w.seqs) {
		startOff = w.offs[start]
		endOff = startOff
	}
	for end < len(w.seqs) && w.seqs[end] <= durableSeq {
		next := durableSize
		if end+1 < len(w.offs) {
			next = w.offs[end+1]
		}
		if count > 0 && next-startOff > int64(maxBytes) {
			break
		}
		endOff = next
		last = w.seqs[end]
		end++
		count++
	}
	if count == 0 {
		return nil, 0, 0, nil
	}
	frames = make([]byte, endOff-startOff)
	if _, err := w.f.ReadAt(frames, startOff); err != nil {
		return nil, 0, 0, fmt.Errorf("wal: read %s: %w", w.path, err)
	}
	return frames, count, last, nil
}

// testHookRotateAfterRename, when non-nil, runs inside Rotate between the
// staged file's rename and the directory fsync — the crash window tests
// inject failures into. A non-nil return aborts Rotate the way a crash
// would: the on-disk log is already the new file while the in-memory WAL
// still describes the old one, so the test must discard the WAL and
// reopen from disk, exactly like a restarted process.
var testHookRotateAfterRename func() error

// Rotate checkpoints the log at appliedSeq: entries with seq <= appliedSeq
// — now durable in a compacted snapshot — are dropped by writing a fresh
// log (new header with base appliedSeq, the surviving entries copied
// verbatim) beside the old one and atomically renaming it over. A crash at
// any point leaves either the old complete log or the new complete log.
// Only durable (fsynced) entries may be rotated behind; appliedSeq beyond
// the durable watermark is an error.
func (w *WAL) Rotate(appliedSeq uint64) error {
	w.fsMu.Lock()
	defer w.fsMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return fmt.Errorf("wal: log failed, refusing rotation: %w", err)
	}
	if appliedSeq <= w.baseSeq {
		return nil
	}
	w.sc.Lock()
	durable := w.syncedSeq
	w.sc.Unlock()
	if appliedSeq > durable {
		return fmt.Errorf("wal: rotate at seq %d beyond durable watermark %d", appliedSeq, durable)
	}

	// Index of the first surviving entry.
	cut := 0
	for cut < len(w.seqs) && w.seqs[cut] <= appliedSeq {
		cut++
	}
	tmpPath := w.path + ".rotating"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate %s: %w", w.path, err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	if _, err := tmp.Write(encodeHeader(appliedSeq)); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rotate %s: %w", w.path, err)
	}
	newOffs := make([]int64, 0, len(w.seqs)-cut)
	off := int64(headerSize)
	if cut < len(w.seqs) {
		keepFrom := w.offs[cut]
		if _, err := io.Copy(tmp, io.NewSectionReader(w.f, keepFrom, w.size-keepFrom)); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: rotate %s: %w", w.path, err)
		}
		for _, o := range w.offs[cut:] {
			newOffs = append(newOffs, o-keepFrom+headerSize)
		}
		off += w.size - keepFrom
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rotate %s: %w", w.path, err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rotate %s: %w", w.path, err)
	}
	if h := testHookRotateAfterRename; h != nil {
		if err := h(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := syncDir(w.path); err != nil {
		tmp.Close()
		return err
	}
	old := w.f
	w.f = tmp
	old.Close()
	w.seqs = append([]uint64(nil), w.seqs[cut:]...)
	w.offs = newOffs
	w.baseSeq = appliedSeq
	if w.lastSeq < appliedSeq {
		w.lastSeq = appliedSeq
	}
	w.size = off
	w.sc.Lock()
	w.syncedSize = off
	if w.syncedSeq < appliedSeq {
		w.syncedSeq = appliedSeq
	}
	w.sc.Unlock()
	w.rotations.Add(1)
	return nil
}

// Reset replaces the log wholesale with a fresh, empty one whose
// checkpoint base is base — the follower's re-seed primitive. Once a
// snapshot covering every entry up to base is installed, nothing in the
// local log is worth keeping: entries at or below base are redundant with
// the snapshot, and a follower lagging far enough to need a snapshot has
// nothing above it. The swap uses the same staged write + rename +
// directory-fsync discipline as Rotate, so a crash at any point leaves
// either the old complete log or the new empty one.
//
// Unlike Rotate, Reset clears a sticky fsync error: the durability
// promises the old file could no longer keep die with that file, and the
// fresh one starts with no outstanding obligations.
func (w *WAL) Reset(base uint64) error {
	w.fsMu.Lock()
	defer w.fsMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	tmpPath := w.path + ".rotating"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reset %s: %w", w.path, err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	if _, err := tmp.Write(encodeHeader(base)); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: reset %s: %w", w.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: reset %s: %w", w.path, err)
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: reset %s: %w", w.path, err)
	}
	if err := syncDir(w.path); err != nil {
		tmp.Close()
		return err
	}
	old := w.f
	w.f = tmp
	old.Close()
	w.seqs, w.offs = nil, nil
	w.baseSeq, w.lastSeq = base, base
	w.size = headerSize
	w.sc.Lock()
	w.syncedSeq = base
	w.syncedSize = headerSize
	w.syncErr = nil
	w.cond.Broadcast()
	w.sc.Unlock()
	w.rotations.Add(1)
	return nil
}

// Close fsyncs outstanding appends and closes the file; it is idempotent.
// Waiters unblock: with an error if the final fsync failed, cleanly
// otherwise.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		if w.stopSync != nil {
			close(w.stopSync)
			<-w.syncDone
		}
		err := w.Sync()
		w.fsMu.Lock()
		w.mu.Lock()
		w.closed = true
		cerr := w.f.Close()
		w.mu.Unlock()
		w.fsMu.Unlock()
		w.sc.Lock()
		w.scClosed = true
		w.cond.Broadcast()
		w.sc.Unlock()
		if err == nil {
			err = cerr
		}
		w.closeErr = err
	})
	return w.closeErr
}

// LastSeq reports the highest sequence number appended (durable or not).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// BaseSeq reports the checkpoint base: the highest sequence number rotated
// out of the log (0 if none ever was).
func (w *WAL) BaseSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.baseSeq
}

// SyncedSeq reports the durable watermark: every entry up to it is
// fsynced.
func (w *WAL) SyncedSeq() uint64 {
	w.sc.Lock()
	defer w.sc.Unlock()
	return w.syncedSeq
}

// Stats is a point-in-time summary for health and stats endpoints.
type Stats struct {
	// Path is the log file.
	Path string
	// SizeBytes is the current file size.
	SizeBytes int64
	// Entries is the number of entries currently in the file.
	Entries int
	// BaseSeq, LastSeq, SyncedSeq are the checkpoint base, the append
	// head, and the durable watermark.
	BaseSeq, LastSeq, SyncedSeq uint64
	// Appends, Syncs, Rotations count operations over the WAL's life.
	Appends, Syncs, Rotations int64
	// LastError is the sticky fsync failure, "" while healthy.
	LastError string
}

// Stats returns the current counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	st := Stats{
		Path:      w.path,
		SizeBytes: w.size,
		Entries:   len(w.seqs),
		BaseSeq:   w.baseSeq,
		LastSeq:   w.lastSeq,
		Appends:   w.appends.Load(),
		Syncs:     w.syncs.Load(),
		Rotations: w.rotations.Load(),
	}
	w.mu.Unlock()
	w.sc.Lock()
	st.SyncedSeq = w.syncedSeq
	if w.syncErr != nil {
		st.LastError = w.syncErr.Error()
	}
	w.sc.Unlock()
	return st
}

// syncDir fsyncs path's parent directory so a just-created or just-renamed
// file survives a crash of the directory entry itself.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: open dir of %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir of %s: %w", path, err)
	}
	return nil
}
