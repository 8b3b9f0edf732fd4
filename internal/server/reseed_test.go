package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xseq"
	"xseq/internal/faultio"
)

// newCheckpointingPrimary starts a primary whose checkpoint policy fires
// once the WAL holds every entries, sampled fast enough for tests.
func newCheckpointingPrimary(t *testing.T, dir string, every int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return newPrimary(t, filepath.Join(dir, "p.wal"), func(c *Config) {
		c.CheckpointEveryEntries = every
		c.checkpointPoll = 10 * time.Millisecond
		if mutate != nil {
			mutate(c)
		}
	})
}

// waitForCheckpoint waits until a checkpoint covering atLeast is published
// (snapshot described, counters bumped) — the state /stats, /snapshot and a
// re-seeding follower read. The WAL's BaseSeq moves earlier, at rotation,
// so it is not the thing to wait on.
func waitForCheckpoint(t *testing.T, srv *Server, atLeast uint64) {
	t.Helper()
	waitUntil(t, 10*time.Second, "automatic checkpoint", func() bool {
		m := srv.ckpt.currentMeta()
		return m != nil && m.seq >= atLeast
	})
}

func TestAutomaticCheckpointAndSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 7; i++ {
		if code, _, body := postInsert(t, pts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
	}
	// The policy fires on its own: the log rotates past the first five
	// entries without any manual checkpoint call.
	waitForCheckpoint(t, psrv, 5)

	// /stats surfaces the checkpoint section.
	_, sb := get(t, pts.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || st.Checkpoint.Checkpoints < 1 || st.Checkpoint.SnapshotSeq < 5 {
		t.Fatalf("checkpoint stats = %s", sb)
	}

	// /snapshot streams the checkpoint with verifiable headers.
	resp, err := http.Get(pts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot = %d (%v)", resp.StatusCode, err)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(headerSnapSeq), 10, 64)
	if err != nil || seq < 5 {
		t.Fatalf("snapshot seq header = %q (%v)", resp.Header.Get(headerSnapSeq), err)
	}
	crcWant, err := strconv.ParseUint(resp.Header.Get(headerSnapCRC), 10, 32)
	if err != nil {
		t.Fatalf("snapshot crc header = %q (%v)", resp.Header.Get(headerSnapCRC), err)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(crcWant) {
		t.Fatalf("snapshot body crc %08x, header %08x", got, uint32(crcWant))
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("content-length %q for %d bytes", cl, len(body))
	}
	// The stream is a loadable index snapshot covering the advertised seq.
	snapPath := filepath.Join(dir, "downloaded.snap")
	if err := os.WriteFile(snapPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := xseq.LoadFile(snapPath)
	if err != nil {
		t.Fatalf("downloaded snapshot does not load: %v", err)
	}
	if docs, err := ix.StoredDocuments(); err != nil || len(docs) < 5 {
		t.Fatalf("downloaded snapshot docs = %d (%v)", len(docs), err)
	}

	if resp, err := http.Post(pts.URL+"/snapshot", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /snapshot = %d", resp.StatusCode)
	}
}

func TestSnapshotEndpointWithoutCheckpoints(t *testing.T) {
	// Unarmed primary: /snapshot has nothing to serve.
	_, ts := newPrimary(t, filepath.Join(t.TempDir(), "p.wal"), nil)
	if code, _ := get(t, ts.URL+"/snapshot"); code != http.StatusNotFound {
		t.Fatalf("/snapshot on unarmed primary = %d", code)
	}
	// Armed but nothing checkpointed yet: also 404, with a hint to retry.
	psrv, pts := newCheckpointingPrimary(t, t.TempDir(), 1000, nil)
	_ = psrv
	if code, _ := get(t, pts.URL+"/snapshot"); code != http.StatusNotFound {
		t.Fatalf("/snapshot before first checkpoint = %d", code)
	}
}

func TestSnapshotGateShedsExcessDownloads(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 2, func(c *Config) {
		c.snapshotMaxConcurrent = 1
	})
	for i := 0; i < 3; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 2)

	// Occupy the only download slot directly; the next request is shed
	// with 429 + Retry-After instead of queueing behind the transfer.
	psrv.snapSem <- struct{}{}
	defer func() { <-psrv.snapSem }()
	resp, err := http.Get(pts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated /snapshot = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestFollowerReseedsAfterRotation is the headline self-healing path: a
// follower starting from zero against a primary whose log has already
// rotated past seq 1 cannot tail its way up — it must notice the 410,
// fetch the snapshot, swap it in, and resume tailing, all hands-off.
func TestFollowerReseedsAfterRotation(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 12; i++ {
		if code, _, body := postInsert(t, pts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
	}
	// A checkpoint can fire mid-insert: the earliest is at seq 5+, and a
	// first rotation at seq 8 or 9 leaves a tail shorter than the 5-entry
	// bound, so the base is only guaranteed to settle at >= 8.
	waitForCheckpoint(t, psrv, 8)

	fsrv, fts := newFollower(t, pts.URL, nil)
	// AppliedSeq hits 12 at the engine swap, a moment before the
	// replicator records the reseed and resumes tailing — wait for both.
	waitUntil(t, 10*time.Second, "reseed convergence", func() bool {
		st := fsrv.repl.status()
		return fsrv.dyn.AppliedSeq() == 12 && st.State == "tailing"
	})
	st := fsrv.repl.status()
	if st.Reseeds < 1 || st.SeedSeq < 8 || st.State != "tailing" || st.Gone {
		t.Fatalf("replication after reseed = %+v", st)
	}
	// The follower converged to the primary's exact document count.
	pcode, pqr, _ := getQuery(t, pts.URL, "q="+matchAll)
	fcode, fqr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if pcode != 200 || fcode != 200 || pqr.Count != 12 || fqr.Count != 12 {
		t.Fatalf("convergence: primary %d/%d follower %d/%d", pcode, pqr.Count, fcode, fqr.Count)
	}
	_, hb := get(t, fts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(hb, &h); err != nil || h.Status != "ok" {
		t.Fatalf("post-reseed health = %s (%v)", hb, err)
	}
	// Tailing continues past the reseed.
	postInsert(t, pts.URL, 12, docXML(12))
	waitUntil(t, 5*time.Second, "post-reseed tailing", func() bool {
		return fsrv.dyn.AppliedSeq() == 13
	})
}

// TestDurableFollowerReseedPersistsSeed verifies a durable follower keeps
// the downloaded snapshot: after a reseed and a restart, it comes back at
// the reseeded position instead of re-fetching history.
func TestDurableFollowerReseedPersistsSeed(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 11; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	// A mid-insert rotation can leave a tail under the 5-entry bound, so
	// the base is only guaranteed to settle at >= 7 (11 - 5 + 1).
	waitForCheckpoint(t, psrv, 7)

	fwal := filepath.Join(dir, "f.wal")
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) { c.WALPath = fwal })
	waitUntil(t, 10*time.Second, "durable reseed", func() bool {
		return fsrv.dyn.AppliedSeq() == 11 && fsrv.repl.status().Reseeds >= 1
	})
	if st := fsrv.repl.status(); st.Reseeds < 1 {
		t.Fatalf("expected a reseed, got %+v", st)
	}
	fts.Close()
	fsrv.Close()

	// The downloaded seed landed at the follower's checkpoint path.
	if _, err := os.Stat(fwal + ".ckpt"); err != nil {
		t.Fatalf("persisted seed: %v", err)
	}
	fsrv2, _ := newFollower(t, pts.URL, func(c *Config) { c.WALPath = fwal })
	if got := fsrv2.dyn.NumDocuments(); got != 11 {
		t.Fatalf("restarted durable follower has %d documents, want 11", got)
	}
	waitUntil(t, 5*time.Second, "restart rejoin", func() bool {
		return fsrv2.repl.status().LastContactMS >= 0
	})
	if st := fsrv2.repl.status(); st.Reseeds != 0 {
		t.Fatalf("restart re-fetched a snapshot it already had: %+v", st)
	}
}

// TestReseedSurvivesCorruptDownloads is the chaos drill: the first
// snapshot download is cut short, the second has one bit flipped in
// flight. Both must be detected and discarded — the follower keeps
// serving its old corpus, reports degraded, and converges on the third,
// clean attempt with zero manual steps.
func TestReseedSurvivesCorruptDownloads(t *testing.T) {
	dir := t.TempDir()

	// Old primary: the follower's pre-disaster state, three documents.
	fp := &flakyPrimary{}
	p1, err := New(Config{
		WALPath:        filepath.Join(dir, "p1.wal"),
		DefaultTimeout: 30 * time.Second,
		walPollWait:    100 * time.Millisecond,
		Logf:           silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp.cur.Store(p1)
	pts := httptest.NewServer(fp)
	t.Cleanup(pts.Close)
	for i := 0; i < 3; i++ {
		if code, _, body := postInsert(t, pts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
	}

	var attempts atomic.Int64
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) {
		c.testSnapshotBody = func(r io.Reader) io.Reader {
			switch attempts.Add(1) {
			case 1:
				return &faultio.TruncatingReader{R: r, Limit: 64}
			case 2:
				return &faultio.FlippingReader{R: r, Offset: 100, Bit: 3}
			default:
				return r
			}
		}
	})
	waitUntil(t, 5*time.Second, "pre-disaster catch-up", func() bool {
		return fsrv.dyn.AppliedSeq() == 3
	})

	// Disaster: the primary is replaced by one whose log starts at a
	// checkpoint far past the follower's position (operator restored a
	// bigger dataset; the follower's seqs 1-3 are gone from the log).
	p1.Close()
	p2src, p2ts := newCheckpointingPrimary(t, dir, 8, nil)
	for i := 100; i < 110; i++ {
		if code, _, body := postInsert(t, p2ts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
	}
	waitForCheckpoint(t, p2src, 8)
	fp.cur.Store(p2src)

	// While the corrupted downloads fail, the follower never stops
	// answering from its old three-document state and reports the failure.
	waitUntil(t, 10*time.Second, "corrupt download detected", func() bool {
		st := fsrv.repl.status()
		return st.ReseedAttempts >= 1 && st.LastReseedError != ""
	})
	if code, qr, _ := getQuery(t, fts.URL, "q="+matchAll); code != 200 || qr.Count != 3 {
		t.Fatalf("follower reads during failed reseeds = %d, %+v", code, qr)
	}
	_, hb := get(t, fts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(hb, &h); err != nil || h.Status != "degraded" {
		t.Fatalf("health during failed reseeds = %s (%v)", hb, err)
	}

	// Third attempt is clean: the follower converges to the new primary.
	// AppliedSeq moves at the engine swap, before the replicator records
	// the reseed: wait for the record the assertion below reads.
	waitUntil(t, 15*time.Second, "post-chaos convergence", func() bool {
		return fsrv.repl.status().Reseeds >= 1 && fsrv.dyn.AppliedSeq() == p2src.dyn.AppliedSeq()
	})
	st := fsrv.repl.status()
	if st.ReseedAttempts < 3 || st.Reseeds != 1 || st.LastReseedError != "" {
		t.Fatalf("reseed counters after chaos = %+v", st)
	}
	pcode, pqr, _ := getQuery(t, p2ts.URL, "q="+matchAll)
	fcode, fqr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if pcode != 200 || fcode != 200 || pqr.Count != fqr.Count || fqr.Count != 10 {
		t.Fatalf("final counts: primary %d/%d follower %d/%d", pcode, pqr.Count, fcode, fqr.Count)
	}
}

// TestReseedSurvivesPrimaryDeathMidStream kills the primary (from the
// follower's point of view) in the middle of a snapshot transfer: the
// truncated download is discarded, the follower stays on its old state,
// and once the primary is back the reseed completes.
func TestReseedSurvivesPrimaryDeathMidStream(t *testing.T) {
	dir := t.TempDir()
	psrv, pts0 := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 9; i++ {
		postInsert(t, pts0.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 5)

	fp := &flakyPrimary{}
	fp.cur.Store(psrv)
	pts := httptest.NewServer(fp)
	t.Cleanup(pts.Close)

	var attempts atomic.Int64
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) {
		c.testSnapshotBody = func(r io.Reader) io.Reader {
			if attempts.Add(1) == 1 {
				// Deliver a prefix, then the connection dies with the primary.
				fp.cur.Store(nil)
				return io.MultiReader(io.LimitReader(r, 32), &faultio.FailingReader{R: r, Err: io.ErrUnexpectedEOF})
			}
			return r
		}
	})
	waitUntil(t, 10*time.Second, "mid-stream death detected", func() bool {
		st := fsrv.repl.status()
		return st.ReseedAttempts >= 1 && st.LastReseedError != ""
	})
	// Still serving (empty corpus, but answering) and degraded.
	if code, _, _ := getQuery(t, fts.URL, "q="+matchAll); code != 200 {
		t.Fatalf("follower stopped answering during outage: %d", code)
	}

	// Primary comes back; the retry completes the seed.
	fp.cur.Store(psrv)
	waitUntil(t, 15*time.Second, "post-death convergence", func() bool {
		return fsrv.repl.status().Reseeds >= 1 && fsrv.dyn.AppliedSeq() == 9
	})
	if st := fsrv.repl.status(); st.Reseeds != 1 {
		t.Fatalf("reseeds after recovery = %+v", st)
	}
}

// TestReseedRacesRotation lets a new checkpoint replace the snapshot
// while a follower's download of the previous one is in flight. The
// served stream is pinned to the opened file, so the transfer still
// verifies; the follower lands on the older seq and tailing (or a second
// reseed) brings it the rest of the way.
func TestReseedRacesRotation(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 4, nil)
	for i := 0; i < 5; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 4)

	var raced atomic.Bool
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) {
		c.testSnapshotBody = func(r io.Reader) io.Reader {
			if !raced.Swap(true) {
				// Buffer the whole transfer first (the fd is already pinned),
				// then force a new checkpoint to land before the follower
				// finishes "reading" it.
				b, err := io.ReadAll(r)
				if err != nil {
					return &faultio.FailingReader{R: bytes.NewReader(nil), Err: err}
				}
				base := psrv.dyn.WALStats().BaseSeq
				for i := 200; i < 205; i++ {
					postInsert(t, pts.URL, i, docXML(i))
				}
				deadline := time.Now().Add(5 * time.Second)
				for psrv.dyn.WALStats().BaseSeq == base && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				return bytes.NewReader(b)
			}
			return r
		}
	})
	waitUntil(t, 15*time.Second, "racing convergence", func() bool {
		return fsrv.repl.status().Reseeds >= 1 && fsrv.dyn.AppliedSeq() == psrv.dyn.AppliedSeq()
	})
	if st := fsrv.repl.status(); st.Reseeds < 1 || st.LastReseedError != "" {
		t.Fatalf("racing reseed status = %+v", st)
	}
	pcode, pqr, _ := getQuery(t, pts.URL, "q="+matchAll)
	fcode, fqr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if pcode != 200 || fcode != 200 || pqr.Count != fqr.Count || fqr.Count != 10 {
		t.Fatalf("racing final counts: primary %d/%d follower %d/%d", pcode, pqr.Count, fcode, fqr.Count)
	}
}

func TestFollowerHonorsRetryAfter(t *testing.T) {
	// A primary shedding load with 503 + Retry-After must not be hammered:
	// the follower sleeps the hinted duration instead of its own (much
	// shorter) backoff ladder.
	var polls atomic.Int64
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "busy")
	}))
	t.Cleanup(busy.Close)
	fsrv, _ := newFollower(t, busy.URL, func(c *Config) {
		c.followMinBackoff = 5 * time.Millisecond
		c.followMaxBackoff = 20 * time.Millisecond
	})
	waitUntil(t, 5*time.Second, "first shed poll", func() bool { return polls.Load() >= 1 })
	time.Sleep(500 * time.Millisecond)
	// Without the hint, 5-20ms backoff would have produced dozens of polls
	// in half a second; the 1s hint allows at most the initial one plus
	// rounding slack.
	if got := polls.Load(); got > 2 {
		t.Fatalf("follower polled %d times against a 1s Retry-After", got)
	}
	if st := fsrv.repl.status(); st.LastError == "" {
		t.Fatal("shed state not surfaced in replication status")
	}
}

func TestFollowerRejectsMalformedWALHeaders(t *testing.T) {
	cases := []struct {
		name string
		set  func(http.Header)
	}{
		{"missing-head", func(h http.Header) {
			h.Set(headerWALCount, "0")
			h.Set(headerWALLast, "0")
		}},
		{"garbage-count", func(h http.Header) {
			h.Set(headerWALHead, "7")
			h.Set(headerWALCount, "banana")
			h.Set(headerWALLast, "7")
		}},
		{"count-mismatch", func(h http.Header) {
			// Headers promise two entries; the body carries none.
			h.Set(headerWALHead, "7")
			h.Set(headerWALCount, "2")
			h.Set(headerWALLast, "7")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.set(w.Header())
				w.WriteHeader(http.StatusOK)
			}))
			t.Cleanup(bad.Close)
			fsrv, _ := newFollower(t, bad.URL, nil)
			waitUntil(t, 5*time.Second, "protocol error surfaced", func() bool {
				st := fsrv.repl.status()
				return st.ProtocolErrors >= 1
			})
			st := fsrv.repl.status()
			if st.LastError == "" || st.Gone {
				t.Fatalf("malformed headers status = %+v", st)
			}
			// The follower is still alive and serving.
			if fsrv.dyn.AppliedSeq() != 0 {
				t.Fatalf("malformed response advanced the position to %d", fsrv.dyn.AppliedSeq())
			}
		})
	}
}

func TestConfigRejectsCheckpointWithoutWAL(t *testing.T) {
	if _, err := New(Config{FollowURL: "http://x", CheckpointEveryEntries: 5, Logf: silentLogf}); err == nil {
		t.Fatal("checkpoint policy without a WAL accepted")
	}
	if _, err := New(Config{IndexPath: "nope.idx", CheckpointPath: "x.ckpt", Logf: silentLogf}); err == nil {
		t.Fatal("CheckpointPath on a static server accepted")
	}
}

func TestPrimaryRestartSeedsFromOwnCheckpoint(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 7; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 5)
	pts.Close()
	psrv.Close()

	// The restart loads the checkpoint and replays only the short tail.
	psrv2, pts2 := newCheckpointingPrimary(t, dir, 5, nil)
	if got := psrv2.dyn.NumDocuments(); got != 7 {
		t.Fatalf("restarted primary has %d documents, want 7", got)
	}
	replayed := psrv2.dyn.WALStats().ReplayedEntries
	if replayed >= 7 {
		t.Fatalf("restart replayed %d entries despite the checkpoint seed", replayed)
	}
	// The checkpoint's index is adopted, not rebuilt: only the replayed
	// documents are new, and they wait in one segment for compaction.
	if got := psrv2.dyn.PendingDocuments(); got != replayed {
		t.Fatalf("restarted primary has %d pending documents, want the %d replayed", got, replayed)
	}
	// The pre-restart checkpoint is served immediately, before any new
	// checkpoint fires.
	if code, _ := get(t, pts2.URL+"/snapshot"); code != http.StatusOK {
		t.Fatalf("/snapshot after restart = %d", code)
	}
	if code, qr, _ := getQuery(t, pts2.URL, "q="+matchAll); code != 200 || qr.Count != 7 {
		t.Fatalf("restarted query = %d, %+v", code, qr)
	}
}

// TestCheckpointShardMismatchIsUnreadable: ExpectShards applies to the
// checkpoint a restart seeds from. A mismatched one is treated like an
// unreadable checkpoint: startup fails when the log was rotated against it,
// and otherwise the log is replayed alone.
func TestCheckpointShardMismatchIsUnreadable(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 7; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 5)
	pts.Close()
	psrv.Close()
	rotated := Config{
		WALPath:        filepath.Join(dir, "p.wal"),
		CheckpointPath: filepath.Join(dir, "p.wal.ckpt"),
		ExpectShards:   2,
		Logf:           silentLogf,
	}
	if srv, err := New(rotated); err == nil {
		srv.Close()
		t.Fatal("restart over a rotated log and a monolithic checkpoint with ExpectShards=2 succeeded")
	}

	// A log that still holds history from seq 1 recovers on its own.
	var logs bytes.Buffer
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	full := filepath.Join(dir, "full.wal")
	fsrv, fts := newPrimary(t, full, nil)
	for i := 0; i < 4; i++ {
		postInsert(t, fts.URL, i, docXML(i))
	}
	fts.Close()
	fsrv.Close()
	if err := copyFile(filepath.Join(dir, "p.wal.ckpt"), full+".ckpt"); err != nil {
		t.Fatal(err)
	}
	srv, ts := newPrimary(t, full, func(c *Config) {
		c.CheckpointPath, c.ExpectShards, c.Logf = full+".ckpt", 2, logf
	})
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != 200 || qr.Count != 4 {
		t.Fatalf("query after replaying the log alone = %d, %+v", code, qr)
	}
	if st := srv.dyn.Stats(); st.Shards != 2 {
		t.Fatalf("replayed index has %d shards, want 2", st.Shards)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "ignoring unreadable checkpoint") {
		t.Fatalf("startup log does not report the ignored checkpoint:\n%s", logs.String())
	}
}

// TestCheckpointWithoutDocumentsIsUnreadable: a checkpoint saved without
// its corpus cannot seed a restart. It is ignored while the log still holds
// history from seq 1, and refused once the log was rotated.
func TestCheckpointWithoutDocumentsIsUnreadable(t *testing.T) {
	dir := t.TempDir()
	psrv, pts := newCheckpointingPrimary(t, dir, 5, nil)
	for i := 0; i < 7; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	waitForCheckpoint(t, psrv, 5)
	pts.Close()
	psrv.Close()
	ckpt := filepath.Join(dir, "p.wal.ckpt")
	buildSnapshot(t, ckpt, 5, false)
	if srv, err := New(Config{WALPath: filepath.Join(dir, "p.wal"), CheckpointPath: ckpt, Logf: silentLogf}); err == nil {
		srv.Close()
		t.Fatal("restart over a rotated log and a checkpoint without documents succeeded")
	} else if !strings.Contains(err.Error(), "KeepDocuments") {
		t.Fatalf("restart error %q does not name the missing corpus", err)
	}

	var logs bytes.Buffer
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	full := filepath.Join(dir, "full.wal")
	fsrv, fts := newPrimary(t, full, nil)
	for i := 0; i < 4; i++ {
		postInsert(t, fts.URL, i, docXML(i))
	}
	fts.Close()
	fsrv.Close()
	buildSnapshot(t, full+".ckpt", 2, false)
	_, ts := newPrimary(t, full, func(c *Config) { c.CheckpointPath, c.Logf = full+".ckpt", logf })
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != 200 || qr.Count != 4 {
		t.Fatalf("query after replaying the log alone = %d, %+v", code, qr)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "ignoring unreadable checkpoint") {
		t.Fatalf("startup log does not report the ignored checkpoint:\n%s", logs.String())
	}
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
