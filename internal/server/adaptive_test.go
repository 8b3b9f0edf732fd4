package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newAdaptiveServer starts a static server over a KeepDocuments snapshot
// with the adaptive loop tuned for test speed: fast polls, a hair-trigger
// drift threshold, aggressive decay, and no rebuild rate limit.
func newAdaptiveServer(t *testing.T, ndocs int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	srv, ts := newTestServer(t, ndocs, func(cfg *Config) {
		cfg.Adaptive = true
		cfg.AdaptivePoll = 10 * time.Millisecond
		cfg.AdaptiveDrift = 0.05
		cfg.AdaptiveMinInterval = time.Millisecond
		cfg.adaptiveMinSamples = 4
		cfg.adaptiveDecay = 0.8
		if mutate != nil {
			mutate(cfg)
		}
	})
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// adaptiveStats fetches /stats and returns the adaptive section.
func adaptiveStats(t *testing.T, base string) *adaptiveStat {
	t.Helper()
	code, body := get(t, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.Adaptive
}

// TestAdaptiveHotSwapUnderConcurrentQueries is the tentpole's proof
// obligation: while goroutines hammer queries with known answers, the
// adaptive loop must complete at least one background re-sequenced rebuild
// and hot-swap it in — with zero wrong answers at any point. Run under
// -race this also proves the swap itself is sound against readers.
func TestAdaptiveHotSwapUnderConcurrentQueries(t *testing.T) {
	const ndocs = 20
	_, ts := newAdaptiveServer(t, ndocs, nil)

	var (
		stop    atomic.Bool
		shifted atomic.Bool
		wrong   atomic.Int64
		wg      sync.WaitGroup
	)
	client := ts.Client()
	queryOnce := func(q string, want int) {
		resp, err := client.Get(ts.URL + "/query?q=" + q)
		if err != nil {
			wrong.Add(1)
			return
		}
		var qr queryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || qr.Count != want {
			wrong.Add(1)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if shifted.Load() {
					// Shifted mix: hammer the title spine, sample the old
					// hot pattern to keep checking its answers.
					queryOnce("/rec/title", ndocs)
					queryOnce("/rec/title", ndocs)
					queryOnce(matchAll, ndocs)
				} else {
					queryOnce(matchAll, ndocs)
				}
			}
		}()
	}

	// Phase 1: the initial index was built unweighted, so the first derived
	// vector drifts from empty and triggers a rebuild once enough samples
	// accumulate.
	waitFor(t, func() bool {
		st := adaptiveStats(t, ts.URL)
		return st != nil && st.Rebuilds >= 1
	})

	// Phase 2: shift the mix wholesale. The decaying table forgets the old
	// hot pattern, the derived vector drifts from the built one, and a
	// second rebuild proves the detector tracks the workload rather than
	// firing once and going quiet.
	shifted.Store(true)
	waitFor(t, func() bool {
		return adaptiveStats(t, ts.URL).Rebuilds >= 2
	})

	stop.Store(true)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d queries returned wrong answers across adaptive hot-swaps", n)
	}

	st := adaptiveStats(t, ts.URL)
	if !st.Enabled || st.Failures != 0 {
		t.Fatalf("adaptive stat after rebuilds: %+v", st)
	}
	if len(st.BuiltWeights) == 0 {
		t.Fatalf("serving index should carry the built weight vector: %+v", st)
	}
	if st.LastRebuildMS <= 0 {
		t.Fatalf("last rebuild duration missing: %+v", st)
	}

	// The swapped-in index still answers correctly after the dust settles.
	code, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
	if code != http.StatusOK || qr.Count != ndocs {
		t.Fatalf("post-swap query = %d, %+v", code, qr)
	}
}

// TestAdaptiveRebuildFailureContained injects a rebuild failure and
// asserts the containment contract: failures are counted, /healthz reports
// degraded with the error, the old index keeps serving correct answers —
// and once the fault clears, the backoff retry succeeds and health
// recovers.
func TestAdaptiveRebuildFailureContained(t *testing.T) {
	const ndocs = 5
	var failing atomic.Bool
	failing.Store(true)
	_, ts := newAdaptiveServer(t, ndocs, func(cfg *Config) {
		cfg.testRebuildFail = func() error {
			if failing.Load() {
				return errors.New("injected rebuild fault")
			}
			return nil
		}
	})

	// Feed the pattern table until the loop trips over the injected fault.
	drive := func() {
		for i := 0; i < 10; i++ {
			if code, _, body := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK {
				t.Fatalf("query during fault = %d: %s", code, body)
			}
		}
	}
	drive()
	waitFor(t, func() bool {
		drive()
		st := adaptiveStats(t, ts.URL)
		return st != nil && st.Failures >= 1
	})

	st := adaptiveStats(t, ts.URL)
	if st.Rebuilds != 0 {
		t.Fatalf("no rebuild should complete while the fault is armed: %+v", st)
	}
	if !strings.Contains(st.LastError, "injected rebuild fault") {
		t.Fatalf("last_error = %q", st.LastError)
	}
	code, body := get(t, ts.URL+"/healthz")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || code != http.StatusOK {
		t.Fatalf("/healthz = %d, %v: %s", code, err, body)
	}
	if h.Status != "degraded" || !strings.Contains(h.AdaptiveError, "injected rebuild fault") {
		t.Fatalf("healthz during fault = %+v", h)
	}
	// Serving never stopped: the old index answers throughout.
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK || qr.Count != ndocs {
		t.Fatalf("query while degraded = %d, %+v", code, qr)
	}

	// Clear the fault; the capped-backoff retry completes a rebuild and
	// /healthz recovers.
	failing.Store(false)
	waitFor(t, func() bool {
		drive()
		return adaptiveStats(t, ts.URL).Rebuilds >= 1
	})
	_, body = get(t, ts.URL+"/healthz")
	h = healthResponse{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.AdaptiveError != "" {
		t.Fatalf("healthz after recovery = %+v", h)
	}
}

// TestAdaptiveRebuildYieldsToReload holds an adaptive rebuild after it has
// read its base snapshot, reloads a snapshot with different documents, and
// releases the rebuild. It was sequenced from the old corpus, so publishing
// it would silently revert the reload: it must be discarded, and served
// answers must stay the reloaded snapshot's — through later rebuilds too.
func TestAdaptiveRebuildYieldsToReload(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int64
	srv, ts := newAdaptiveServer(t, 3, func(cfg *Config) {
		cfg.testRebuildFail = func() error {
			if calls.Add(1) == 1 {
				entered <- struct{}{}
				<-release
			}
			return nil
		}
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the server's Close, which waits for the rebuild

	drive := func() {
		if code, _, body := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK {
			t.Fatalf("query = %d: %s", code, body)
		}
	}
	waitFor(t, func() bool {
		drive()
		select {
		case <-entered:
			return true
		default:
			return false
		}
	})
	buildSnapshot(t, srv.cfg.IndexPath, 7, true)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	unblock()

	// The held rebuild must not count; the first that does is sequenced
	// from the reloaded snapshot.
	waitFor(t, func() bool {
		drive()
		return adaptiveStats(t, ts.URL).Rebuilds >= 1
	})
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK || qr.Count != 7 {
		t.Fatalf("after the reload and a rebuild: %d, %+v; want the reloaded 7 documents", code, qr)
	}
	if st := adaptiveStats(t, ts.URL); st.Failures != 0 {
		t.Fatalf("a discarded rebuild counted as a failure: %+v", st)
	}
}

// TestAdaptiveDynamicResequence runs the loop against a WAL-backed dynamic
// primary: the rebuild path is the engine's forced in-place rebuild, which
// must preserve every answer and keep accepting inserts afterwards.
func TestAdaptiveDynamicResequence(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "primary.wal")
	srv, err := New(Config{
		WALPath:             wal,
		Adaptive:            true,
		AdaptivePoll:        10 * time.Millisecond,
		AdaptiveDrift:       0.05,
		AdaptiveMinInterval: time.Millisecond,
		adaptiveMinSamples:  4,
		adaptiveDecay:       0.8,
		Logf:                silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	const ndocs = 8
	for i := 0; i < ndocs; i++ {
		if code, _, body := postInsert(t, ts.URL, i,
			fmt.Sprintf("<rec><title>t%d</title><city>boston</city></rec>", i)); code != http.StatusOK {
			t.Fatalf("insert %d = %d: %s", i, code, body)
		}
	}
	waitFor(t, func() bool {
		for i := 0; i < 5; i++ {
			if code, qr, body := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK || qr.Count != ndocs {
				t.Fatalf("query = %d, %+v: %s", code, qr, body)
			}
		}
		st := adaptiveStats(t, ts.URL)
		return st != nil && st.Rebuilds >= 1
	})

	// The re-sequenced dynamic index keeps serving and ingesting.
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != http.StatusOK || qr.Count != ndocs {
		t.Fatalf("post-resequence query = %d, %+v", code, qr)
	}
	if code, _, body := postInsert(t, ts.URL, ndocs,
		"<rec><title>late</title><city>boston</city></rec>"); code != http.StatusOK {
		t.Fatalf("post-resequence insert = %d: %s", code, body)
	}
	waitFor(t, func() bool {
		_, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
		return qr.Count == ndocs+1
	})
}

// TestAdaptiveConfigValidation covers the mode guards: a follower cannot
// re-sequence the primary's log, and a static snapshot without its corpus
// has nothing to rebuild from.
func TestAdaptiveConfigValidation(t *testing.T) {
	if _, err := New(Config{FollowURL: "http://primary", Adaptive: true, Logf: silentLogf}); err == nil ||
		!strings.Contains(err.Error(), "FollowURL") {
		t.Fatalf("follower + adaptive: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "snap.idx")
	buildSnapshot(t, path, 2, false) // no KeepDocuments
	if _, err := New(Config{IndexPath: path, Adaptive: true, Logf: silentLogf}); err == nil ||
		!strings.Contains(err.Error(), "KeepDocuments") {
		t.Fatalf("adaptive without documents: err = %v", err)
	}
}

// TestAdaptiveMetricsExposed checks the /metrics families the loop owns.
func TestAdaptiveMetricsExposed(t *testing.T) {
	srv, ts := newAdaptiveServer(t, 2, nil)
	for i := 0; i < 3; i++ {
		getQuery(t, ts.URL, "q="+matchAll)
	}
	ms := httptest.NewServer(srv.MetricsHandler())
	defer ms.Close()
	_, body := get(t, ms.URL)
	for _, want := range []string{
		"xseq_adaptive_rebuilds_total",
		"xseq_adaptive_rebuild_failures_total",
		"xseq_adaptive_drift",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
