package server

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xseq"
	"xseq/internal/telemetry"
	"xseq/internal/wal"
)

// insertResponse is the POST /insert success body.
type insertResponse struct {
	ID int32 `json:"id"`
	// Seq is the WAL sequence number state after this insert: the insert
	// is durable up to at least this position.
	Seq       uint64 `json:"seq"`
	Documents int    `json:"documents"`
	Pending   int    `json:"pending"`
	// Warning is set when the insert landed (and is durable) but the
	// automatic compaction it triggered failed; the index keeps serving
	// and retries compaction later.
	Warning string `json:"warning,omitempty"`
}

// handleInsert ingests one document on a dynamic primary: the id comes
// from ?id, the XML document is the request body. The insert is
// acknowledged only after the WAL entry is fsynced.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.dyn == nil {
		writeError(w, http.StatusNotFound, "this server serves a static snapshot; inserts need a -wal primary")
		return
	}
	if s.repl != nil {
		writeError(w, http.StatusForbidden, "this server is a read-only follower; insert on the primary")
		return
	}
	params := r.URL.Query()
	idStr := params.Get("id")
	if idStr == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter id")
		return
	}
	id64, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad id %q", idStr))
		return
	}

	ctx, adm, ok := s.admit(w, r, params)
	if !ok {
		return
	}
	defer s.release(adm)

	doc, err := xseq.ParseDocument(int32(id64), http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad document: %v", err))
		return
	}

	err = s.dyn.InsertContext(ctx, doc)
	var warning string
	if err != nil {
		var cerr *xseq.CompactionError
		switch {
		case errors.As(err, &cerr):
			// The insert itself landed and is durable; only the triggered
			// rebuild failed, and it retries automatically.
			warning = cerr.Error()
		case errors.Is(err, xseq.ErrDuplicateID):
			writeError(w, http.StatusConflict, err.Error())
			return
		case errors.Is(err, xseq.ErrNotApplied):
			// Rejected before it was logged: the document is definitely
			// not in the index, so the client can simply retry.
			s.insertErrs.Add(1)
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				status = http.StatusGatewayTimeout
			case errors.Is(err, context.Canceled):
				status = http.StatusServiceUnavailable
			default:
				s.cfg.Logf("server: insert id %d failed: %v", id64, err)
			}
			writeError(w, status, fmt.Sprintf("insert not applied (safe to retry): %v", err))
			return
		case errors.Is(err, context.DeadlineExceeded):
			s.insertErrs.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				"insert deadline exceeded (durability unconfirmed: the document may or may not survive a restart)")
			return
		case errors.Is(err, context.Canceled):
			s.insertErrs.Add(1)
			writeError(w, http.StatusServiceUnavailable, "insert cancelled (durability unconfirmed)")
			return
		default:
			s.insertErrs.Add(1)
			s.cfg.Logf("server: insert id %d failed: %v", id64, err)
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	s.inserts.Add(1)
	writeJSON(w, http.StatusOK, insertResponse{
		ID:        int32(id64),
		Seq:       s.dyn.AppliedSeq(),
		Documents: s.dyn.NumDocuments(),
		Pending:   s.dyn.PendingDocuments(),
		Warning:   warning,
	})
}

// WAL stream response headers. Bodies are raw framed WAL entries
// (application/octet-stream), decodable with the same frame reader the
// local replay uses.
const (
	headerWALCount = "X-Wal-Count"    // entries in this response
	headerWALLast  = "X-Wal-Last-Seq" // seq of the last included entry (0: none)
	headerWALHead  = "X-Wal-Head-Seq" // serving log's durable watermark
	headerWALBase  = "X-Wal-Base-Seq" // serving log's checkpoint base
)

// handleWAL streams framed log entries to followers: GET /wal?from=N
// returns durable entries with seq >= N (up to ?max bytes, default 1 MiB).
// When nothing qualifies yet it long-polls up to ?wait (capped at 25s) and
// may answer an empty 200 — the follower just asks again. Entries rotated
// into a checkpoint answer 410 Gone: the follower needs a snapshot, not the
// log.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.dyn == nil {
		writeError(w, http.StatusNotFound, "this server serves a static snapshot; no write-ahead log")
		return
	}
	params := r.URL.Query()
	from := uint64(1)
	if v := params.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", v))
			return
		}
		from = n
	}
	maxBytes := 1 << 20
	if v := params.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad max %q", v))
			return
		}
		if n > 8<<20 {
			n = 8 << 20
		}
		maxBytes = n
	}
	wait := s.cfg.walPollWait
	if v := params.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad wait %q", v))
			return
		}
		if d < wait {
			wait = d
		}
	}

	frames, count, last, err := s.dyn.ReadWALFrames(from, maxBytes)
	if err == nil && count == 0 && wait > 0 {
		// Long-poll: wait for the log head to reach the requested entry,
		// bounded by the wait cap, client disconnect, and server shutdown.
		wctx, cancel := context.WithTimeout(r.Context(), wait)
		stopAfter := context.AfterFunc(s.baseCtx, cancel)
		_ = s.dyn.WaitWALSynced(wctx, from)
		stopAfter()
		cancel()
		frames, count, last, err = s.dyn.ReadWALFrames(from, maxBytes)
	}
	st := s.dyn.WALStats()
	if st != nil {
		w.Header().Set(headerWALHead, strconv.FormatUint(st.SyncedSeq, 10))
		w.Header().Set(headerWALBase, strconv.FormatUint(st.BaseSeq, 10))
	}
	if err != nil {
		switch {
		case errors.Is(err, xseq.ErrUnsupported):
			writeError(w, http.StatusNotFound, "this index has no write-ahead log")
		case errors.Is(err, xseq.ErrWALRotated):
			writeError(w, http.StatusGone, err.Error())
		default:
			s.cfg.Logf("server: wal read from seq %d failed: %v", from, err)
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	w.Header().Set(headerWALCount, strconv.Itoa(count))
	w.Header().Set(headerWALLast, strconv.FormatUint(last, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frames)
}

// replProtocolError is a malformed or inconsistent primary response —
// a missing or unparsable X-Wal-* header, an entry count that does not
// match the advertised one. The follower treats it like any other
// transient failure (backs off and retries; a flaky proxy can mangle one
// response) but counts it separately in /stats so a systematically
// broken peer is visible.
type replProtocolError struct {
	what string
}

func (e *replProtocolError) Error() string { return "replication protocol: " + e.what }

// retryAfterError carries an explicit Retry-After hint from the primary
// (429/503): the follower sleeps the hinted duration instead of walking
// its own backoff ladder — the primary knows when it will have capacity.
type retryAfterError struct {
	status string
	after  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("primary answered %s (retry after %v)", e.status, e.after)
}

// headerUint parses a required uint64 response header; a missing or
// malformed value is a protocol error, never a silent zero (a zero head
// would masquerade as "primary is empty" and trip data-loss detection).
func headerUint(h http.Header, key string) (uint64, error) {
	v := h.Get(key)
	if v == "" {
		return 0, &replProtocolError{what: "missing " + key + " header"}
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, &replProtocolError{what: fmt.Sprintf("bad %s header %q", key, v)}
	}
	return n, nil
}

// primaryError describes a primary's non-200 answer to route. A 429 or
// 503 whose Retry-After gives whole seconds becomes a *retryAfterError.
func primaryError(resp *http.Response, route string) error {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && err == nil && secs > 0 {
		return &retryAfterError{status: resp.Status, after: time.Duration(secs) * time.Second}
	}
	return fmt.Errorf("primary answered %s to %s", resp.Status, route)
}

// replicator tails a primary's /wal endpoint and applies every entry to
// the local dynamic index. It runs as a supervised task, reconnecting with
// the task's backoff or after the primary's Retry-After hint; resumes from
// the last applied sequence number (which a local WAL preserves across
// restarts); and degrades gracefully: while the primary is unreachable the
// follower keeps serving reads and reports the condition through /healthz. When the primary rotates its log past the
// follower's position (410 Gone), the loop switches to re-seeding: it
// downloads the primary's latest checkpoint from /snapshot, verifies
// length and CRC, swaps it in atomically, and resumes tailing from the
// snapshot's sequence number — reads keep being served from the old state
// the whole time, and any failure leaves that state untouched.
type replicator struct {
	s      *Server
	client *http.Client
	task   *task

	mu            sync.Mutex
	lastContact   time.Time
	primaryHead   uint64
	gone          bool // primary rotated past our position; log cannot catch us up
	attempts      int64
	applied       int64
	protocolErrs  int64
	reseeds       int64 // completed snapshot re-seeds
	reseedTries   int64 // re-seed attempts, including failed ones
	lastReseedErr error
	seedSeq       uint64 // seq of the last snapshot swapped in
	seedBytes     int64  // bytes fetched by the last successful re-seed
}

func newReplicator(s *Server) *replicator {
	r := &replicator{
		s: s,
		// No overall request timeout: /wal long-polls by design. Dial and
		// header timeouts keep a dead primary from hanging a poll forever.
		client: &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: s.cfg.walPollWait + 10*time.Second,
		}},
	}
	// No pause: the primary's long-poll paces successful rounds.
	r.task = &task{
		name: "follower", step: r.step,
		minBackoff: s.cfg.followMinBackoff, maxBackoff: s.cfg.followMaxBackoff, logf: s.cfg.Logf,
		report: func(h *healthResponse, _ string) {
			h.Replication = r.status()
			if h.Replication.Gone {
				h.Status = "degraded"
			}
		},
		metrics: func(e *telemetry.Emit) {
			rs := r.status()
			e.Counter("xseq_replication_entries_applied_total", "", "WAL entries applied from the primary.", rs.EntriesApplied)
			e.Counter("xseq_reseeds_total", "", "Completed snapshot re-seeds after rotation outran this follower.", rs.Reseeds)
			e.Counter("xseq_reseed_attempts_total", "", "Snapshot re-seed attempts, including failures.", rs.ReseedAttempts)
			e.Gauge("xseq_replication_lag", "", "Entries between the primary's head and this follower.", float64(rs.Lag))
		},
	}
	return r
}

// step runs one replication round: it tails the log or, after the primary
// has rotated past us, re-seeds from its snapshot. The same backoff paces
// both, so a primary without a checkpoint yet is retried gently instead of
// hammered.
func (r *replicator) step(ctx context.Context) error {
	r.mu.Lock()
	gone := r.gone
	r.mu.Unlock()
	var err error
	if gone {
		err = r.reseed(ctx)
	} else {
		err = r.poll(ctx)
	}
	var perr *replProtocolError
	if errors.As(err, &perr) {
		r.mu.Lock()
		r.protocolErrs++
		r.mu.Unlock()
	}
	return err
}

// poll performs one GET /wal round: request entries after the last applied
// sequence number, apply everything received. A nil return means the
// primary answered (possibly with no new entries).
func (r *replicator) poll(ctx context.Context) error {
	from := r.s.dyn.AppliedSeq() + 1
	u := strings.TrimSuffix(r.s.cfg.FollowURL, "/") + "/wal?" + url.Values{
		"from": {strconv.FormatUint(from, 10)},
		"wait": {r.s.cfg.walPollWait.String()},
	}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("follow %s: %w", r.s.cfg.FollowURL, err)
	}
	r.mu.Lock()
	r.attempts++
	r.mu.Unlock()
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("follow %s: %w", r.s.cfg.FollowURL, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		r.mu.Lock()
		r.gone = true
		r.mu.Unlock()
		return fmt.Errorf("primary rotated its log past seq %d; re-seeding from its latest snapshot", from)
	default:
		return primaryError(resp, "/wal")
	}

	head, err := headerUint(resp.Header, headerWALHead)
	if err != nil {
		return err
	}
	wantCount, err := headerUint(resp.Header, headerWALCount)
	if err != nil {
		return err
	}
	wantLast, err := headerUint(resp.Header, headerWALLast)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.lastContact = time.Now()
	r.primaryHead = head
	r.mu.Unlock()
	if applied := from - 1; head < applied {
		return fmt.Errorf("primary log head %d is behind this follower's position %d (wrong primary, or primary data loss)", head, applied)
	}

	rd := wal.NewReader(resp.Body, from-1)
	var got uint64
	var lastSeq uint64
	for {
		seq, payload, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("wal stream from %s: %w", r.s.cfg.FollowURL, err)
		}
		if err := r.s.dyn.ApplyReplicated(ctx, seq, payload); err != nil {
			return fmt.Errorf("apply replicated seq %d: %w", seq, err)
		}
		got++
		lastSeq = seq
		r.mu.Lock()
		r.applied++
		r.mu.Unlock()
	}
	if got != wantCount || (got > 0 && lastSeq != wantLast) {
		// The entries already applied are intact (each frame is CRC-checked)
		// but the response was cut short or over-delivered against its own
		// headers: the next poll resumes from the real position.
		return &replProtocolError{what: fmt.Sprintf(
			"body carried %d entries to seq %d, headers promised %d to seq %d",
			got, lastSeq, wantCount, wantLast)}
	}
	return nil
}

// reseed performs one snapshot re-seed round: download the primary's
// latest checkpoint, verify it end to end, swap it in, resume tailing.
// Until fetchAndSwap commits the swap, the follower keeps answering
// queries from its old state; any failure is retried by the task.
func (r *replicator) reseed(ctx context.Context) error {
	r.mu.Lock()
	r.reseedTries++
	r.mu.Unlock()
	seq, n, err := r.fetchAndSwap(ctx)
	if err != nil {
		r.mu.Lock()
		r.lastReseedErr = err
		r.mu.Unlock()
		return fmt.Errorf("re-seed: %w", err)
	}
	r.mu.Lock()
	r.gone = false
	r.lastReseedErr = nil
	r.reseeds++
	r.seedSeq = seq
	r.seedBytes = n
	r.mu.Unlock()
	r.s.cfg.Logf("server: follower re-seeded from %s at seq %d (%d bytes); resuming log tail",
		r.s.cfg.FollowURL, seq, n)
	return nil
}

// fetchAndSwap downloads GET /snapshot to a temp file, verifies the
// advertised length and CRC against what actually arrived, loads it, and
// only then swaps the follower's serving state and WAL. Order matters:
// every validation happens against the temp file before the swap, so a
// truncated, bit-flipped, or mid-stream-aborted download changes nothing.
func (r *replicator) fetchAndSwap(ctx context.Context) (seq uint64, n int64, err error) {
	u := strings.TrimSuffix(r.s.cfg.FollowURL, "/") + "/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return 0, 0, fmt.Errorf("primary has no snapshot to seed from (arm -checkpoint-every on it): %s", resp.Status)
	default:
		return 0, 0, primaryError(resp, "/snapshot")
	}
	seq, err = headerUint(resp.Header, headerSnapSeq)
	if err != nil {
		return 0, 0, err
	}
	crcWant, err := headerUint(resp.Header, headerSnapCRC)
	if err != nil {
		return 0, 0, err
	}
	if crcWant > math.MaxUint32 {
		return 0, 0, &replProtocolError{what: fmt.Sprintf("%s %d out of CRC-32 range", headerSnapCRC, crcWant)}
	}
	if resp.ContentLength < 0 {
		return 0, 0, &replProtocolError{what: "snapshot response without Content-Length"}
	}

	// Stage the download next to its final home so the publishing rename
	// stays on one filesystem; memory-only followers stage in the system
	// temp dir and just discard the file after loading.
	dir := os.TempDir()
	if r.s.cfg.CheckpointPath != "" {
		dir = filepath.Dir(r.s.cfg.CheckpointPath)
	}
	f, err := os.CreateTemp(dir, "xseq-reseed-*.tmp")
	if err != nil {
		return 0, 0, err
	}
	tmpPath := f.Name()
	kept := false
	defer func() {
		if !kept {
			os.Remove(tmpPath)
		}
	}()

	body := io.Reader(resp.Body)
	if hook := r.s.cfg.testSnapshotBody; hook != nil {
		body = hook(body)
	}
	h := crc32.NewIEEE()
	n, copyErr := io.Copy(io.MultiWriter(f, h), body)
	if copyErr != nil {
		f.Close()
		return 0, 0, fmt.Errorf("snapshot download after %d bytes: %w", n, copyErr)
	}
	if n != resp.ContentLength {
		f.Close()
		return 0, 0, fmt.Errorf("snapshot download truncated: got %d bytes, want %d", n, resp.ContentLength)
	}
	if got := h.Sum32(); got != uint32(crcWant) {
		f.Close()
		return 0, 0, fmt.Errorf("snapshot download corrupt: crc %08x, want %08x", got, uint32(crcWant))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}

	// The load re-verifies the snapshot's own checksums and structure: a
	// corrupt file that somehow passed the transfer CRC still cannot get
	// past here.
	ix, err := openSnapshot(tmpPath, false)
	if err != nil {
		return 0, 0, fmt.Errorf("downloaded snapshot: %w", err)
	}
	if r.s.cfg.CheckpointPath != "" {
		// Keep the verified seed for restarts, published atomically.
		if err := os.Rename(tmpPath, r.s.cfg.CheckpointPath); err != nil {
			return 0, 0, err
		}
		kept = true
		if err := fsyncDir(r.s.cfg.CheckpointPath); err != nil {
			return 0, 0, err
		}
	}
	if err := r.s.dyn.ReseedFromSnapshot(ix, seq); err != nil {
		return 0, 0, err
	}
	return seq, n, nil
}

// replicationStatus is the follower's state snapshot for /stats and
// /healthz.
type replicationStatus struct {
	// Primary is the followed base URL.
	Primary string `json:"primary"`
	// State is "tailing" while the log stream suffices, "reseeding" while
	// the primary has rotated past this follower and a snapshot transfer
	// is pending or in flight.
	State string `json:"state"`
	// AppliedSeq is the local replication position; PrimaryHeadSeq the
	// primary's durable watermark at last contact; Lag their difference.
	AppliedSeq     uint64 `json:"applied_seq"`
	PrimaryHeadSeq uint64 `json:"primary_head_seq"`
	Lag            uint64 `json:"lag"`
	// Attempts counts /wal polls; EntriesApplied replicated entries.
	Attempts       int64 `json:"attempts"`
	EntriesApplied int64 `json:"entries_applied"`
	// ProtocolErrors counts malformed primary responses (bad or missing
	// X-Wal-* headers, body/header entry-count mismatches).
	ProtocolErrors int64 `json:"protocol_errors,omitempty"`
	// Reseeds counts completed snapshot re-seeds; ReseedAttempts includes
	// the failed tries; SeedSeq and SnapshotBytesFetched describe the last
	// snapshot swapped in.
	Reseeds              int64  `json:"reseeds,omitempty"`
	ReseedAttempts       int64  `json:"reseed_attempts,omitempty"`
	SeedSeq              uint64 `json:"seed_seq,omitempty"`
	SnapshotBytesFetched int64  `json:"snapshot_bytes_fetched,omitempty"`
	// LastReseedError is the most recent re-seed failure, "" after success.
	LastReseedError string `json:"last_reseed_error,omitempty"`
	// LastContactMS is how long ago the primary last answered (-1: never).
	LastContactMS float64 `json:"last_contact_ms"`
	// LastError is the current replication failure, "" while healthy.
	LastError string `json:"last_error,omitempty"`
	// Gone reports that the primary rotated its log past this follower's
	// position: polling cannot catch up until a re-seed completes.
	Gone bool `json:"gone,omitempty"`
}

func (r *replicator) status() *replicationStatus {
	applied := r.s.dyn.AppliedSeq()
	_, lastErr := r.task.health()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &replicationStatus{
		Primary:              r.s.cfg.FollowURL,
		State:                "tailing",
		AppliedSeq:           applied,
		PrimaryHeadSeq:       r.primaryHead,
		Attempts:             r.attempts,
		EntriesApplied:       r.applied,
		ProtocolErrors:       r.protocolErrs,
		Reseeds:              r.reseeds,
		ReseedAttempts:       r.reseedTries,
		SeedSeq:              r.seedSeq,
		SnapshotBytesFetched: r.seedBytes,
		LastContactMS:        -1,
		LastError:            lastErr,
		Gone:                 r.gone,
	}
	if r.gone {
		st.State = "reseeding"
	}
	if r.primaryHead > applied {
		st.Lag = r.primaryHead - applied
	}
	if !r.lastContact.IsZero() {
		st.LastContactMS = float64(time.Since(r.lastContact)) / float64(time.Millisecond)
	}
	if r.lastReseedErr != nil {
		st.LastReseedError = r.lastReseedErr.Error()
	}
	return st
}
