package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xseq"
)

// buildFlatSnapshot writes an n-document snapshot to path through
// SaveFlatFile (same corpus as buildSnapshot, so matchAll hits every
// document).
func buildFlatSnapshot(t *testing.T, path string, n int, keepDocs bool) {
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
	if err := ix.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestServeFlatSnapshot: a static server over a flat snapshot answers
// queries, enforces ExpectLayout, and /stats carries the flat section with
// live resident/disk-access figures.
func TestServeFlatSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.flat")
	buildFlatSnapshot(t, path, 4, true)
	srv, err := New(Config{
		IndexPath:      path,
		ExpectLayout:   "flat",
		DefaultTimeout: 30 * time.Second,
		Logf:           silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
	if code != http.StatusOK || qr.Count != 4 {
		t.Fatalf("query = %d, %+v", code, qr)
	}
	if code, qr, _ = getQuery(t, ts.URL, "q="+matchAll+"&verify=1"); code != 200 || qr.Count != 4 {
		t.Fatalf("verified query = %d, %+v", code, qr)
	}

	code, body := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Flat == nil {
		t.Fatalf("/stats has no flat section: %s", body)
	}
	if st.Flat.MappedBytes == 0 || st.Flat.Pages == 0 {
		t.Fatalf("flat stats missing size figures: %+v", st.Flat)
	}
	if st.Flat.Reads == 0 || st.Flat.ResidentPages == 0 {
		t.Fatalf("queries did not register page touches: %+v", st.Flat)
	}
	if st.Flat.ResidentPages > st.Flat.Pages {
		t.Fatalf("resident %d pages exceeds mapped %d", st.Flat.ResidentPages, st.Flat.Pages)
	}
}

// TestExpectLayoutMismatch: ExpectLayout chooses how a single-partition
// snapshot is held — the same SaveFile output serves as "monolithic" or as
// "flat" — and refuses a snapshot of the other shape: a sharded one where
// a single partition is expected, and the reverse.
func TestExpectLayoutMismatch(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "snap.idx")
	buildSnapshot(t, single, 2, false)
	for _, layout := range []string{"monolithic", "flat"} {
		srv, err := New(Config{IndexPath: single, ExpectLayout: layout, Logf: silentLogf})
		if err != nil {
			t.Fatalf("single-partition snapshot refused with ExpectLayout=%s: %v", layout, err)
		}
		if got := srv.swap.Current().Layout(); got != layout {
			t.Fatalf("ExpectLayout=%s serves layout %s", layout, got)
		}
		srv.Close()
	}
	if _, err := New(Config{IndexPath: single, ExpectLayout: "sharded", Logf: silentLogf}); err == nil {
		t.Fatal("single-partition snapshot accepted with ExpectLayout=sharded")
	}
	sharded := filepath.Join(dir, "sharded.idx")
	buildShardedSnapshot(t, sharded, 4, 2)
	for _, layout := range []string{"monolithic", "flat"} {
		if _, err := New(Config{IndexPath: sharded, ExpectLayout: layout, Logf: silentLogf}); err == nil {
			t.Fatalf("sharded snapshot accepted with ExpectLayout=%s", layout)
		}
	}
	if _, err := New(Config{IndexPath: single, ExpectLayout: "zoned", Logf: silentLogf}); err == nil {
		t.Fatal("unknown ExpectLayout accepted")
	}
}

// TestFlatCorruptReloadKeepsServing: a corrupt replacement flat snapshot —
// including damage in the bulk sections the O(dictionary) open does not
// checksum — is rejected on reload and the old snapshot keeps answering.
func TestFlatCorruptReloadKeepsServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.flat")
	buildFlatSnapshot(t, path, 3, false)
	srv, err := New(Config{
		IndexPath:      path,
		ExpectLayout:   "flat",
		DefaultTimeout: 30 * time.Second,
		Logf:           silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replacement snapshots must arrive by atomic rename (SaveFlatFile's
	// contract): the serving snapshot mmaps the old inode, which an in-place
	// overwrite would mutate underneath it.
	replace := func(data []byte) {
		t.Helper()
		tmp := path + ".next"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the tail — bulk payload far past the verified dictionary head.
	mut := bytes.Clone(blob)
	mut[len(mut)-8] ^= 0x01
	replace(mut)
	if err := srv.Reload(); err == nil {
		t.Fatal("Reload accepted a corrupt flat snapshot")
	}
	code, qr, _ := getQuery(t, ts.URL, "q="+matchAll)
	if code != http.StatusOK || qr.Count != 3 {
		t.Fatalf("after corrupt reload: query = %d, %+v", code, qr)
	}
	var hr healthResponse
	if _, body := get(t, ts.URL+"/healthz"); true {
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
	}
	if hr.Status != "degraded" {
		t.Fatalf("healthz after failed reload = %q, want degraded", hr.Status)
	}

	// An intact rewrite reloads cleanly.
	replace(blob)
	if err := srv.Reload(); err != nil {
		t.Fatalf("intact reload failed: %v", err)
	}
	if code, qr, _ := getQuery(t, ts.URL, "q="+matchAll); code != 200 || qr.Count != 3 {
		t.Fatalf("after recovery: query = %d, %+v", code, qr)
	}
}

// TestServeFlatAccountingRace: a served flat snapshot counts the page
// touches of concurrent requests exactly — no read lost, every page's first
// touch counted once — while the counters and GET /stats are read
// throughout. Run with -race.
func TestServeFlatAccountingRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.flat")
	buildFlatSnapshot(t, path, 40, false)
	srv, err := New(Config{
		IndexPath:      path,
		ExpectLayout:   "flat",
		DefaultTimeout: 30 * time.Second,
		Logf:           silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ix := srv.swap.Current()
	stats := func() (*xseq.FlatStats, error) {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return nil, err
		}
		return st.Flat, nil
	}
	query := func(q string) error {
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query %s: HTTP %d", q, resp.StatusCode)
		}
		return nil
	}

	// A query's reads do not depend on what is resident.
	queries := []string{matchAll, "/rec/title", "//city"}
	var single int64
	for _, q := range queries {
		before := ix.IO().Reads
		if err := query(q); err != nil {
			t.Fatal(err)
		}
		single += ix.IO().Reads - before
	}
	if single == 0 {
		t.Fatal("queries registered no page reads")
	}
	base := ix.IO().Reads

	const workers, rounds = 4, 10
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			c := ix.IO()
			fs := ix.Stats().Flat
			if c.Hits+c.DiskAccesses != c.Reads || fs.ResidentPages > fs.Pages {
				t.Errorf("mid-run: %+v, %d of %d pages resident", c, fs.ResidentPages, fs.Pages)
			}
			if st, err := stats(); err != nil || st.ResidentPages > st.Pages {
				t.Errorf("mid-run /stats: %+v, %v", st, err)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range queries {
					if err := query(queries[(g+k)%len(queries)]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	<-polled

	st, err := stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Reads-base, single*workers*rounds; got != want {
		t.Errorf("/stats reads grew by %d, want %d (%d per pass × %d passes)", got, want, single, workers*rounds)
	}
	if st.DiskAccesses != st.ResidentPages || st.ResidentPages > st.Pages || st.ResidentPages == 0 {
		t.Errorf("/stats: %d disk accesses, %d of %d pages resident", st.DiskAccesses, st.ResidentPages, st.Pages)
	}
}
