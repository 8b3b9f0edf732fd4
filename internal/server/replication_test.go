package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xseq"
)

// newPrimary starts a durable dynamic primary over a fresh WAL.
func newPrimary(t *testing.T, walPath string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		WALPath:        walPath,
		DefaultTimeout: 30 * time.Second,
		walPollWait:    200 * time.Millisecond,
		Logf:           silentLogf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// newFollower starts a follower of primaryURL.
func newFollower(t *testing.T, primaryURL string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		FollowURL:        primaryURL,
		DefaultTimeout:   30 * time.Second,
		walPollWait:      200 * time.Millisecond,
		followMinBackoff: 10 * time.Millisecond,
		followMaxBackoff: 100 * time.Millisecond,
		Logf:             silentLogf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postInsert sends one document to /insert and decodes the response.
func postInsert(t *testing.T, base string, id int, xml string) (int, insertResponse, []byte) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/insert?id=%d", base, id), "application/xml",
		strings.NewReader(xml))
	if err != nil {
		t.Fatalf("POST /insert: %v", err)
	}
	defer resp.Body.Close()
	var ir insertResponse
	body := make([]byte, 0)
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ir); err != nil {
			t.Fatalf("bad /insert body: %v", err)
		}
	} else {
		var e errorResponse
		_ = dec.Decode(&e)
		body = []byte(e.Error)
	}
	return resp.StatusCode, ir, body
}

// waitUntil polls cond every few milliseconds until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func docXML(i int) string {
	return fmt.Sprintf("<rec><title>t%d</title><city>boston</city></rec>", i)
}

func TestPrimaryInsertAndQuery(t *testing.T) {
	_, ts := newPrimary(t, filepath.Join(t.TempDir(), "p.wal"), nil)

	for i := 0; i < 3; i++ {
		code, ir, body := postInsert(t, ts.URL, i, docXML(i))
		if code != http.StatusOK {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
		if ir.Seq != uint64(i+1) || ir.Documents != i+1 {
			t.Fatalf("insert %d response = %+v", i, ir)
		}
	}
	code, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
	if code != http.StatusOK || qr.Count != 3 {
		t.Fatalf("query on primary = %d, %+v", code, qr)
	}
	// Duplicate id → 409; the log is untouched.
	if code, _, body := postInsert(t, ts.URL, 1, docXML(1)); code != http.StatusConflict {
		t.Fatalf("duplicate insert = %d: %s", code, body)
	}
	// Malformed document → 400.
	if code, _, _ := postInsert(t, ts.URL, 9, "<unclosed>"); code != http.StatusBadRequest {
		t.Fatalf("bad xml accepted")
	}
	// Missing id → 400.
	if resp, err := http.Post(ts.URL+"/insert", "application/xml", strings.NewReader(docXML(9))); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing id = %d", resp.StatusCode)
	}
	// /stats carries the durability and ingest sections.
	_, body := get(t, ts.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "primary" || st.Ingest == nil || st.Durability == nil {
		t.Fatalf("primary stats = %s", body)
	}
	if st.Ingest.Inserts != 3 || st.Ingest.AppliedSeq != 3 || st.Durability.SyncedSeq != 3 || st.Durability.LastSeq != 3 {
		t.Fatalf("stats seqs = %+v / %+v", st.Ingest, st.Durability)
	}
}

// TestInsertHangupDuringCompactionStaysHealthy: a client that hangs up
// once its insert is applied cannot abandon the automatic compaction that
// insert triggered — the build belongs to the index, not to the request.
// The compaction has landed by the time the handler returns, nothing is
// counted as a failure, and /healthz stays ok. (The engine and facade
// tests cancel from inside the compaction build itself; here the cancel
// comes from the HTTP side, always after the apply.)
func TestInsertHangupDuringCompactionStaysHealthy(t *testing.T) {
	srv, ts := newPrimary(t, filepath.Join(t.TempDir(), "p.wal"), nil)
	const threshold = 1024 // the primary's compaction threshold
	// Records large enough that the cancel below usually lands while the
	// 1,024-document compaction runs; the assertions hold either way.
	rec := func(i int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "<rec><title>t%d</title>", i)
		for k := 0; k < 12; k++ {
			fmt.Fprintf(&b, "<author><name>a%d</name><city>c%d</city></author>", (i+k)%97, k)
		}
		b.WriteString("</rec>")
		return b.String()
	}
	for i := 0; i < threshold-1; i++ {
		doc, err := xseq.ParseDocumentString(int32(i), rec(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.dyn.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/insert?id=%d", threshold-1),
		strings.NewReader(rec(threshold-1))).WithContext(ctx)
	resp := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(resp, req)
	}()
	// Hang up as soon as the document is applied (NumDocuments takes only
	// the read lock, so it never waits for the compaction).
	for srv.dyn.NumDocuments() < threshold {
		select {
		case <-done:
			t.Fatalf("insert ended before it applied: %d %s", resp.Code, resp.Body)
		default:
			runtime.Gosched()
		}
	}
	cancel()
	<-done
	t.Logf("hung-up insert answered %d", resp.Code)

	if h := srv.dyn.Health(); h.Degraded || h.Compactions != 1 || h.FailedCompactions != 0 || h.Pending != 0 {
		t.Fatalf("health after a hang-up = %+v", h)
	}
	code, body := get(t, ts.URL+"/healthz")
	var hr healthResponse
	if code != http.StatusOK || json.Unmarshal(body, &hr) != nil || hr.Status != "ok" {
		t.Fatalf("healthz after a hang-up = %d %s", code, body)
	}
	if code, _, body := postInsert(t, ts.URL, threshold, rec(threshold)); code != http.StatusOK {
		t.Fatalf("next insert = %d: %s", code, body)
	}
	if h := srv.dyn.Health(); h.Compactions != 1 || h.FailedCompactions != 0 || h.Documents != threshold+1 {
		t.Fatalf("health after the next insert = %+v", h)
	}
}

// TestInsertNotAppliedIsSafeToRetry: an insert whose deadline passes
// before its document is indexed is rejected before anything is logged.
// The 504 says so — not "durability unconfirmed" — and a retry lands.
func TestInsertNotAppliedIsSafeToRetry(t *testing.T) {
	srv, ts := newPrimary(t, filepath.Join(t.TempDir(), "p.wal"), nil)
	if code, _, body := postInsert(t, ts.URL, 0, docXML(0)); code != http.StatusOK {
		t.Fatalf("insert 0 = %d: %s", code, body)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/insert?id=1",
		strings.NewReader(docXML(1))).WithContext(ctx)
	resp := httptest.NewRecorder()
	srv.ServeHTTP(resp, req)
	if resp.Code != http.StatusGatewayTimeout || !strings.Contains(resp.Body.String(), "not applied (safe to retry)") {
		t.Fatalf("expired insert = %d %s", resp.Code, resp.Body)
	}
	if n, seq := srv.dyn.NumDocuments(), srv.dyn.AppliedSeq(); n != 1 || seq != 1 {
		t.Fatalf("after a rejected insert: %d documents, seq %d; want 1, 1", n, seq)
	}
	if code, ir, body := postInsert(t, ts.URL, 1, docXML(1)); code != http.StatusOK || ir.Seq != 2 || ir.Documents != 2 {
		t.Fatalf("retried insert = %d %+v: %s", code, ir, body)
	}
}

func TestPrimaryCrashRecoveryOverHTTP(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "p.wal")
	srv, ts := newPrimary(t, walPath, nil)
	for i := 0; i < 5; i++ {
		if code, _, body := postInsert(t, ts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert = %d: %s", code, body)
		}
	}
	// Simulated crash: the process goes away without Drain/Close; only the
	// fsynced log survives.
	ts.Close()
	srv.cancel()
	srv.dyn.Close()

	srv2, ts2 := newPrimary(t, walPath, nil)
	if srv2.dyn.AppliedSeq() != 5 {
		t.Fatalf("recovered seq = %d", srv2.dyn.AppliedSeq())
	}
	code, qr, _ := getQuery(t, ts2.URL, "q="+matchAll)
	if code != 200 || qr.Count != 5 {
		t.Fatalf("recovered query = %d, %+v", code, qr)
	}
	// Ingestion resumes with the next sequence number.
	if code, ir, _ := postInsert(t, ts2.URL, 5, docXML(5)); code != 200 || ir.Seq != 6 {
		t.Fatalf("resumed insert = %d seq %d", code, ir.Seq)
	}
}

func TestWALEndpoint(t *testing.T) {
	_, ts := newPrimary(t, filepath.Join(t.TempDir(), "p.wal"), nil)
	for i := 0; i < 3; i++ {
		postInsert(t, ts.URL, i, docXML(i))
	}

	resp, err := http.Get(ts.URL + "/wal?from=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/wal = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(headerWALCount); got != "3" {
		t.Fatalf("count header = %q", got)
	}
	if got := resp.Header.Get(headerWALLast); got != "3" {
		t.Fatalf("last header = %q", got)
	}
	if got := resp.Header.Get(headerWALHead); got != "3" {
		t.Fatalf("head header = %q", got)
	}

	// Beyond the head with no wait: empty 200, headers still advertise the
	// head so the follower can measure lag.
	resp2, err := http.Get(ts.URL + "/wal?from=4&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 || resp2.Header.Get(headerWALCount) != "0" {
		t.Fatalf("beyond-head /wal = %d count %q", resp2.StatusCode, resp2.Header.Get(headerWALCount))
	}

	// Long-poll: a request parked beyond the head completes once an insert
	// lands.
	type pollResult struct {
		count string
		err   error
	}
	done := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/wal?from=4&wait=5s")
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		done <- pollResult{count: resp.Header.Get(headerWALCount)}
	}()
	time.Sleep(20 * time.Millisecond)
	postInsert(t, ts.URL, 3, docXML(3))
	select {
	case r := <-done:
		if r.err != nil || r.count != "1" {
			t.Fatalf("long-poll = %q, %v", r.count, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never completed")
	}

	if code, _ := get(t, ts.URL+"/wal?from=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad from = %d", code)
	}
}

func TestStaticModeRejectsDynamicEndpoints(t *testing.T) {
	_, ts := newTestServer(t, 2, nil)
	if code, _, _ := postInsert(t, ts.URL, 9, docXML(9)); code != http.StatusNotFound {
		t.Fatalf("insert on static = %d", code)
	}
	if code, _ := get(t, ts.URL+"/wal?wait=0"); code != http.StatusNotFound {
		t.Fatalf("/wal on static = %d", code)
	}
}

func TestFollowerCatchUpAndReadOnly(t *testing.T) {
	dir := t.TempDir()
	_, pts := newPrimary(t, filepath.Join(dir, "p.wal"), nil)
	for i := 0; i < 8; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	// A follower started from empty catches up over HTTP.
	fsrv, fts := newFollower(t, pts.URL, nil)
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return fsrv.dyn.AppliedSeq() == 8
	})
	code, qr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if code != 200 || qr.Count != 8 {
		t.Fatalf("follower query = %d, %+v", code, qr)
	}
	// New inserts stream continuously.
	postInsert(t, pts.URL, 8, docXML(8))
	waitUntil(t, 5*time.Second, "streamed insert", func() bool {
		return fsrv.dyn.AppliedSeq() == 9 && fsrv.repl.status().EntriesApplied == 9
	})
	// The follower refuses writes.
	if code, _, body := postInsert(t, fts.URL, 99, docXML(99)); code != http.StatusForbidden {
		t.Fatalf("insert on follower = %d: %s", code, body)
	}
	// Health and stats report healthy replication.
	_, hb := get(t, fts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(hb, &h); err != nil {
		t.Fatal(err)
	}
	if h.Mode != "follower" || h.Status != "ok" || h.Replication == nil {
		t.Fatalf("follower health = %s", hb)
	}
	if h.Replication.AppliedSeq != 9 || h.Replication.Lag != 0 {
		t.Fatalf("replication status = %+v", h.Replication)
	}
	_, sb := get(t, fts.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "follower" || st.Replication == nil || st.Replication.EntriesApplied != 9 {
		t.Fatalf("follower stats = %s", sb)
	}
}

func TestDurableFollowerResumesFromLocalWAL(t *testing.T) {
	dir := t.TempDir()
	_, pts := newPrimary(t, filepath.Join(dir, "p.wal"), nil)
	for i := 0; i < 6; i++ {
		postInsert(t, pts.URL, i, docXML(i))
	}
	fwal := filepath.Join(dir, "f.wal")
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) { c.WALPath = fwal })
	waitUntil(t, 5*time.Second, "durable follower catch-up", func() bool {
		return fsrv.dyn.AppliedSeq() == 6
	})
	fts.Close()
	fsrv.Close()

	// Restarting the follower replays its own log — it rejoins at seq 6,
	// not from zero, and picks up only what is new.
	postInsert(t, pts.URL, 6, docXML(6))
	fsrv2, _ := newFollower(t, pts.URL, func(c *Config) { c.WALPath = fwal })
	if got := fsrv2.dyn.WALStats().ReplayedEntries; got != 6 {
		t.Fatalf("follower replayed %d entries", got)
	}
	// The position advances inside the apply, before its durability wait;
	// the counter only once the apply returns. Wait for both.
	waitUntil(t, 5*time.Second, "follower rejoin", func() bool {
		return fsrv2.dyn.AppliedSeq() == 7 && fsrv2.repl.status().EntriesApplied > 0
	})
	if st := fsrv2.repl.status(); st.EntriesApplied != 1 {
		t.Fatalf("rejoin applied %d entries over HTTP, want 1", st.EntriesApplied)
	}
}

// flakyPrimary fronts a primary that can be taken down and brought back,
// holding one stable URL across "restarts" the way a crashed-and-restarted
// process keeps its address.
type flakyPrimary struct {
	cur atomic.Pointer[Server]
}

func (f *flakyPrimary) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := f.cur.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	http.Error(w, "primary down", http.StatusBadGateway)
}

func TestFollowerBackoffAndResumeAcrossPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	pwal := filepath.Join(dir, "p.wal")
	mkPrimary := func() *Server {
		srv, err := New(Config{
			WALPath:        pwal,
			DefaultTimeout: 30 * time.Second,
			walPollWait:    100 * time.Millisecond,
			Logf:           silentLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	fp := &flakyPrimary{}
	p1 := mkPrimary()
	fp.cur.Store(p1)
	pts := httptest.NewServer(fp)
	t.Cleanup(pts.Close)

	for i := 0; i < 4; i++ {
		if code, _, body := postInsert(t, pts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("insert = %d: %s", code, body)
		}
	}
	fsrv, fts := newFollower(t, pts.URL, nil)
	waitUntil(t, 5*time.Second, "initial catch-up", func() bool {
		return fsrv.dyn.AppliedSeq() == 4
	})

	// Primary crashes: followers keep serving reads and flag degradation.
	fp.cur.Store(nil)
	p1.Close()
	waitUntil(t, 5*time.Second, "degraded health while primary is down", func() bool {
		_, hb := get(t, fts.URL+"/healthz")
		var h healthResponse
		return json.Unmarshal(hb, &h) == nil && h.Status == "degraded" &&
			h.Replication != nil && h.Replication.LastError != ""
	})
	if code, qr, _ := getQuery(t, fts.URL, "q="+matchAll); code != 200 || qr.Count != 4 {
		t.Fatalf("follower reads during outage = %d, %+v", code, qr)
	}

	// Primary restarts over the same WAL at the same address; the follower
	// reconnects via backoff and resumes from its position — no re-send of
	// entries 1..4, and new entries flow again.
	p2 := mkPrimary()
	t.Cleanup(func() { p2.Close() })
	if p2.dyn.AppliedSeq() != 4 {
		t.Fatalf("restarted primary recovered seq %d", p2.dyn.AppliedSeq())
	}
	fp.cur.Store(p2)
	for i := 4; i < 7; i++ {
		if code, _, body := postInsert(t, pts.URL, i, docXML(i)); code != 200 {
			t.Fatalf("post-restart insert = %d: %s", code, body)
		}
	}
	waitUntil(t, 10*time.Second, "post-restart convergence", func() bool {
		return fsrv.dyn.AppliedSeq() == 7
	})
	waitUntil(t, 5*time.Second, "health recovery", func() bool {
		_, hb := get(t, fts.URL+"/healthz")
		var h healthResponse
		return json.Unmarshal(hb, &h) == nil && h.Status == "ok"
	})
	code, qr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if code != 200 || qr.Count != 7 {
		t.Fatalf("post-restart follower query = %d, %+v", code, qr)
	}
}

func TestFollowerFlagsRotatedAwayPrimary(t *testing.T) {
	// A primary that rotated its log past the follower's position can
	// never catch it up by polling; the follower switches to re-seeding.
	// This one answers 410 to /snapshot too (rotation enabled but the
	// checkpoint file lost), so the re-seed keeps failing — the follower
	// must stay degraded, keep retrying, and keep serving.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerWALBase, "100")
		w.Header().Set(headerWALHead, "120")
		writeError(w, http.StatusGone, "entries rotated into a checkpoint")
	}))
	t.Cleanup(gone.Close)
	fsrv, fts := newFollower(t, gone.URL, nil)
	waitUntil(t, 5*time.Second, "gone detection", func() bool {
		st := fsrv.repl.status()
		return st.Gone && st.LastError != ""
	})
	_, hb := get(t, fts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(hb, &h); err != nil || h.Status != "degraded" || !h.Replication.Gone {
		t.Fatalf("gone health = %s (%v)", hb, err)
	}
	// The replicator is in the re-seed state and accounting its failures.
	waitUntil(t, 5*time.Second, "reseed attempts", func() bool {
		st := fsrv.repl.status()
		return st.State == "reseeding" && st.ReseedAttempts >= 1 && st.LastReseedError != ""
	})
	if st := fsrv.repl.status(); st.Reseeds != 0 {
		t.Fatalf("reseed against a snapshot-less primary succeeded: %+v", st)
	}
	// Still answering queries the whole time.
	if code, _, _ := getQuery(t, fts.URL, "q="+matchAll); code != 200 {
		t.Fatalf("follower stopped serving while stuck re-seeding: %d", code)
	}
}

func TestReplicationHammer(t *testing.T) {
	// Concurrent inserters on the primary, a follower tailing live, and
	// readers on both — everything must converge to identical answers.
	dir := t.TempDir()
	psrv, pts := newPrimary(t, filepath.Join(dir, "p.wal"), func(c *Config) {
		c.WALSyncWindow = 2 * time.Millisecond // group commit under load
	})
	fsrv, fts := newFollower(t, pts.URL, func(c *Config) {
		c.WALPath = filepath.Join(dir, "f.wal")
	})

	const writers, perWriter = 4, 20
	var wg sync.WaitGroup
	insertErrs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := g*perWriter + i
				code, _, body := postInsert(t, pts.URL, id, docXML(id))
				if code != http.StatusOK {
					insertErrs <- fmt.Errorf("insert %d = %d: %s", id, code, body)
					return
				}
			}
		}(g)
	}
	// Readers hammer both ends while the writes stream.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	var readErrs atomic.Int64
	for _, base := range []string{pts.URL, fts.URL} {
		readers.Add(1)
		go func(base string) {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				resp, err := http.Get(base + "/query?q=" + url.QueryEscape(matchAll))
				if err != nil {
					readErrs.Add(1)
					continue
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					readErrs.Add(1)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					readErrs.Add(1)
				}
			}
		}(base)
	}
	wg.Wait()
	close(insertErrs)
	for err := range insertErrs {
		t.Fatal(err)
	}
	const total = writers * perWriter
	if psrv.dyn.AppliedSeq() != total {
		t.Fatalf("primary applied %d", psrv.dyn.AppliedSeq())
	}
	waitUntil(t, 15*time.Second, "hammer convergence", func() bool {
		return fsrv.dyn.AppliedSeq() == total
	})
	close(stopReads)
	readers.Wait()
	if readErrs.Load() != 0 {
		t.Fatalf("%d reads failed during the hammer", readErrs.Load())
	}
	pcode, pqr, _ := getQuery(t, pts.URL, "q="+matchAll)
	fcode, fqr, _ := getQuery(t, fts.URL, "q="+matchAll)
	if pcode != 200 || fcode != 200 || pqr.Count != total || fqr.Count != total {
		t.Fatalf("final queries: primary %d/%d follower %d/%d", pcode, pqr.Count, fcode, fqr.Count)
	}
	for i := range pqr.IDs {
		if pqr.IDs[i] != fqr.IDs[i] {
			t.Fatalf("id mismatch at %d: %d vs %d", i, pqr.IDs[i], fqr.IDs[i])
		}
	}
}
