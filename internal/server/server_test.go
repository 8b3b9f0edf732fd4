package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xseq"
)

// silentLogf discards server logs; tests that care assert on responses,
// and t.Logf is unsafe from handler goroutines that may outlive the test.
func silentLogf(string, ...any) {}

// buildSnapshot writes an n-document index snapshot to path. Every
// document matches the query "/rec/city[text='boston']".
func buildSnapshot(t *testing.T, path string, n int, keepDocs bool) {
	t.Helper()
	docs := make([]*xseq.Document, n)
	for i := range docs {
		d, err := xseq.ParseDocumentString(int32(i),
			fmt.Sprintf("<rec><title>t%d</title><city>boston</city></rec>", i))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	ix, err := xseq.Build(docs, xseq.Config{KeepDocuments: keepDocs})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// matchAll is the query every buildSnapshot document satisfies.
const matchAll = "/rec/city[text='boston']"

// newTestServer builds a snapshot, starts a Server over it, and fronts it
// with httptest. mutate (optional) adjusts the Config before New.
func newTestServer(t *testing.T, ndocs int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.idx")
	buildSnapshot(t, path, ndocs, true)
	cfg := Config{IndexPath: path, DefaultTimeout: 30 * time.Second, Logf: silentLogf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// get fetches url and returns the status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getQuery runs /query and decodes the success body.
func getQuery(t *testing.T, base, params string) (int, queryResponse, []byte) {
	t.Helper()
	code, body := get(t, base+"/query?"+params)
	var qr queryResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad /query body %s: %v", body, err)
		}
	}
	return code, qr, body
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 3, nil)

	code, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
	if code != http.StatusOK || qr.Count != 3 || len(qr.IDs) != 3 {
		t.Fatalf("query = %d, %+v", code, qr)
	}
	if code, qr, _ = getQuery(t, ts.URL, "q="+matchAll+"&limit=2"); code != 200 || qr.Count != 2 {
		t.Fatalf("limited query = %d, %+v", code, qr)
	}
	if code, qr, _ = getQuery(t, ts.URL, "q="+matchAll+"&verify=1"); code != 200 || qr.Count != 3 {
		t.Fatalf("verified query = %d, %+v", code, qr)
	}
	if code, qr, _ = getQuery(t, ts.URL, "q=/rec/city[text='nowhere']"); code != 200 || qr.Count != 0 || qr.IDs == nil {
		t.Fatalf("no-hit query = %d, %+v (ids must encode as [], not null)", code, qr)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 1, nil)
	for name, params := range map[string]string{
		"missing q":   "",
		"parse error": "q=%5B", // "["
		"bad limit":   "q=" + matchAll + "&limit=many",
		"neg limit":   "q=" + matchAll + "&limit=-1",
		"bad timeout": "q=" + matchAll + "&timeout=fast",
	} {
		if code, _, body := getQuery(t, ts.URL, params); code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, body %s", name, code, body)
		}
	}
	resp, err := http.Post(ts.URL+"/query?q="+matchAll, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
}

func TestVerifyWithoutDocumentsIs400(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.idx")
	buildSnapshot(t, path, 2, false) // no KeepDocuments
	srv, err := New(Config{IndexPath: path, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, _, body := getQuery(t, ts.URL, "q="+matchAll+"&verify=1")
	if code != http.StatusBadRequest {
		t.Fatalf("verify on doc-less snapshot = %d, body %s", code, body)
	}
}

// TestQueryTooBroadIs400: a pattern whose wildcards instantiate past the
// snapshot's instantiation limit is the client's to narrow. The handler
// answers 400 with the limit in the message, never 200 with part of the
// answer and never 500.
func TestQueryTooBroadIs400(t *testing.T) {
	docs := make([]*xseq.Document, 3)
	for i := range docs {
		d, err := xseq.ParseDocumentString(int32(i), "<rec><title>t</title><city>boston</city><zip>1</zip></rec>")
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	ix, err := xseq.Build(docs, xseq.Config{InstantiationLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.idx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{IndexPath: path, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, _, body := getQuery(t, ts.URL, "q=//*//*")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "instantiation limit of 2") {
		t.Fatalf("too-broad query = %d, body %s", code, body)
	}
	if code, qr, _ := getQuery(t, ts.URL, "q=/rec/*"); code != http.StatusBadRequest {
		t.Fatalf("/rec/* (3 instances, limit 2) = %d, %+v", code, qr)
	}
	if code, qr, _ := getQuery(t, ts.URL, "q=/rec/city"); code != http.StatusOK || qr.Count != 3 {
		t.Fatalf("narrow query = %d, %+v", code, qr)
	}
}

func TestStatsHealthzReadyz(t *testing.T) {
	srv, ts := newTestServer(t, 4, nil)
	if code, _, _ := getQuery(t, ts.URL, "q="+matchAll); code != 200 {
		t.Fatal("warmup query failed")
	}

	code, body := get(t, ts.URL+"/stats")
	var st statsResponse
	if code != 200 || json.Unmarshal(body, &st) != nil {
		t.Fatalf("stats = %d %s", code, body)
	}
	if st.Index.Documents != 4 || st.Queries < 1 || st.Admission.MaxConcurrent != 32 || st.Draining {
		t.Fatalf("stats body = %+v", st)
	}

	code, body = get(t, ts.URL+"/healthz")
	var h healthResponse
	if code != 200 || json.Unmarshal(body, &h) != nil {
		t.Fatalf("healthz = %d %s", code, body)
	}
	if h.Status != "ok" || h.Documents != 4 {
		t.Fatalf("healthz body = %+v", h)
	}

	if code, _ = get(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}
	srv.dr.begin()
	if code, _ = get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d", code)
	}
}

func TestNewRejectsMissingOrCorruptSnapshot(t *testing.T) {
	if _, err := New(Config{Logf: silentLogf}); err == nil {
		t.Fatal("empty IndexPath must fail")
	}
	if _, err := New(Config{IndexPath: filepath.Join(t.TempDir(), "absent.idx"), Logf: silentLogf}); err == nil {
		t.Fatal("missing snapshot must fail")
	}
}

// TestNewRejectsBadConfig: New is the one place the serving-mode rules and
// value ranges are enforced, and every violation matches ErrConfig (xseqd's
// usage exit). Combinations it accepts may still fail for other reasons —
// here a snapshot that does not exist — but never with ErrConfig.
func TestNewRejectsBadConfig(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "p.wal")
	const snap, follow = "absent.idx", "http://127.0.0.1:1"
	cases := []struct {
		name string
		cfg  Config
		bad  bool
	}{
		{"no mode", Config{}, true},
		{"static", Config{IndexPath: snap}, false},
		{"primary", Config{WALPath: wal}, false},
		{"follower", Config{FollowURL: follow}, false},
		{"durable follower", Config{WALPath: wal, FollowURL: follow}, false},
		{"static + primary", Config{IndexPath: snap, WALPath: wal}, true},
		{"static + follower", Config{IndexPath: snap, FollowURL: follow}, true},
		{"unknown layout", Config{IndexPath: snap, ExpectLayout: "columnar"}, true},
		{"layout on a primary", Config{WALPath: wal, ExpectLayout: "flat"}, true},
		{"negative shards", Config{IndexPath: snap, ExpectShards: -1}, true},
		{"negative cache", Config{IndexPath: snap, QueryCacheEntries: -1}, true},
		{"checkpoint policy without a log", Config{FollowURL: follow, CheckpointEveryBytes: 1 << 20}, true},
		{"checkpoint path on a static server", Config{IndexPath: snap, CheckpointPath: "x.ckpt"}, true},
		{"adaptive follower", Config{FollowURL: follow, Adaptive: true}, true},
		{"adaptive knob without adaptive", Config{IndexPath: snap, AdaptivePoll: time.Second}, true},
		{"drift above 1", Config{IndexPath: snap, Adaptive: true, AdaptiveDrift: 1.5}, true},
		{"negative drift", Config{IndexPath: snap, Adaptive: true, AdaptiveDrift: -0.1}, true},
	}
	for _, c := range cases {
		c.cfg.Logf = silentLogf
		srv, err := New(c.cfg)
		if srv != nil {
			srv.Close()
		}
		if got := errors.Is(err, ErrConfig); got != c.bad {
			t.Errorf("%s: New = %v, want ErrConfig %v", c.name, err, c.bad)
		}
	}
}

func TestGateAdmissionAndOverflow(t *testing.T) {
	g := newGate(2, 1)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Both slots busy: the next acquire queues; run it in a goroutine.
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(ctx) }()
	waitFor(t, func() bool { return g.waiting.Load() == 1 })
	// Queue full too: immediate rejection.
	if err := g.acquire(ctx); !errors.Is(err, errOverloaded) {
		t.Fatalf("overflow acquire = %v", err)
	}
	if got := g.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d", got)
	}
	g.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire = %v", err)
	}
	if got := g.active.Load(); got != 2 {
		t.Fatalf("active = %d", got)
	}
	g.release()
	g.release()
}

func TestGateQueuedCancel(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(ctx) }()
	waitFor(t, func() bool { return g.waiting.Load() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v", err)
	}
	// The queue token must be returned: the next overflow probe queues
	// rather than rejecting.
	done := make(chan error, 1)
	go func() { done <- g.acquire(context.Background()) }()
	waitFor(t, func() bool { return g.waiting.Load() == 1 })
	g.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDrainerLifecycle(t *testing.T) {
	d := &drainer{}
	if !d.enter() {
		t.Fatal("enter before drain must admit")
	}
	zero := d.begin()
	select {
	case <-zero:
		t.Fatal("zero closed with a request in flight")
	default:
	}
	if d.enter() {
		t.Fatal("enter while draining must reject")
	}
	d.exit()
	select {
	case <-zero:
	case <-time.After(time.Second):
		t.Fatal("zero not closed after last exit")
	}
	// begin after fully drained: immediately-closed channel, idempotent.
	select {
	case <-d.begin():
	case <-time.After(time.Second):
		t.Fatal("second begin must be closed already")
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
