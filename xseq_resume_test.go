package xseq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/xmltree"
)

// loadSnapshot reads a snapshot file into memory, the way a restarting
// server opens its checkpoint.
func loadSnapshot(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// sameAnswers fails t unless got answers every query, plain and verified,
// exactly as want does.
func sameAnswers(t *testing.T, what string, got interface {
	Query(string) ([]int32, error)
	QueryVerified(string) ([]int32, error)
}, want *Index, queries []string) {
	t.Helper()
	for _, q := range queries {
		for _, verified := range []bool{false, true} {
			run, ref := got.Query, want.Query
			if verified {
				run, ref = got.QueryVerified, want.QueryVerified
			}
			w, err := ref(q)
			if err != nil {
				t.Fatalf("%s: rebuilt %s: %v", what, q, err)
			}
			g, err := run(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, q, err)
			}
			if !equalIDSlices(g, w) {
				t.Fatalf("%s: %s (verified %v) = %v, rebuilt index answers %v", what, q, verified, g, w)
			}
		}
	}
}

// TestResumeDynamicEquivalence: an index resumed on a checkpoint, with a
// log tail replayed on top, answers exactly what an index rebuilt from the
// same documents answers — before and after further inserts and a
// compaction — for a monolithic checkpoint, a 2-shard checkpoint and a
// checkpoint written after Resequence.
func TestResumeDynamicEquivalence(t *testing.T) {
	docs := genCorpus(t, "xmark", 160)
	queries := append([]string{"//*", "/site/people/person/name", "//item//*"}, xmarkQueries...)
	rebuild := func(n int) *Index {
		ix, err := Build(docs[:n], Config{KeepDocuments: true})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	logged, all := rebuild(140), rebuild(len(docs))
	cases := []struct {
		name    string
		cfg     Config
		weights map[string]float64
	}{
		{"monolithic", Config{}, nil},
		{"sharded", Config{Shards: 2}, nil},
		{"resequenced", Config{}, xmarkWeights},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "index.ckpt")
			cfg := c.cfg
			cfg.KeepDocuments, cfg.WALPath = true, filepath.Join(dir, "ingest.wal")
			primary, err := BuildDynamic(docs[:120], cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.weights != nil {
				if err := primary.Resequence(context.Background(), c.weights); err != nil {
					t.Fatal(err)
				}
			}
			if err := primary.Checkpoint(ckpt); err != nil {
				t.Fatal(err)
			}
			for _, d := range docs[120:140] {
				if err := primary.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
			primary.Close()

			snap, err := loadSnapshot(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeDynamic(snap, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if resumed.NumDocuments() != 140 || resumed.PendingDocuments() != 20 || resumed.AppliedSeq() != 20 {
				t.Fatalf("resumed docs=%d pending=%d seq=%d, want 140, 20, 20",
					resumed.NumDocuments(), resumed.PendingDocuments(), resumed.AppliedSeq())
			}
			sameAnswers(t, "resumed", resumed, logged, queries)
			for _, d := range docs[140:] {
				if err := resumed.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
			sameAnswers(t, "resumed + inserts", resumed, all, queries)
			if err := resumed.Compact(); err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, "resumed + compaction", resumed, all, queries)
		})
	}
}

// TestResumeCheckpointRoundTrip: a checkpoint taken straight after resume,
// with nothing pending, saves the adopted main index as it is. The written
// file must still be a whole, valid snapshot carrying the corpus, including
// when the adopted image dropped its encoded corpus.
func TestResumeCheckpointRoundTrip(t *testing.T) {
	docs := genCorpus(t, "xmark", 60)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.ckpt")
	ix, err := Build(docs, Config{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(src); err != nil {
		t.Fatal(err)
	}
	for _, open := range []struct {
		name string
		load func(string) (*Index, error)
	}{{"heap", loadSnapshot}, {"mapped", LoadFile}} {
		t.Run(open.name, func(t *testing.T) {
			snap, err := open.load(src)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeDynamic(snap, Config{KeepDocuments: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, open.name+".ckpt")
			if err := resumed.Checkpoint(out); err != nil {
				t.Fatal(err)
			}
			back, err := LoadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if err := back.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			stored, err := back.StoredDocuments()
			if err != nil {
				t.Fatal(err)
			}
			if len(stored) != len(docs) {
				t.Fatalf("checkpoint stores %d documents, want %d", len(stored), len(docs))
			}
			for i, d := range stored {
				if d.ID() != docs[i].ID() || d.String() != docs[i].String() {
					t.Fatalf("stored document %d = %d %s, want %d %s", i, d.ID(), d, docs[i].ID(), docs[i])
				}
			}
			sameAnswers(t, "reloaded checkpoint", back, ix, xmarkQueries)
		})
	}
}

// retainedHeapEnv selects, in a child process of TestResumeRetainedHeap,
// which restart path the child measures.
const retainedHeapEnv = "XSEQ_RETAINED_HEAP_PATH"

// TestResumeRetainedHeap: an index resumed on a heap-held checkpoint
// retains no more heap than one rebuilt from the checkpoint's documents,
// within 5 %. Holding the snapshot's encoded corpus after decoding it would
// exceed that. Each path is measured in a fresh process: within one, the
// heap a measurement reads depends on what ran before it.
func TestResumeRetainedHeap(t *testing.T) {
	if path := os.Getenv(retainedHeapEnv); path != "" {
		fmt.Printf("retained=%d\n", retainedHeap(t, path == "resume"))
		return
	}
	measure := func(path string) int64 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestResumeRetainedHeap$", "-test.count=1")
		cmd.Env = append(os.Environ(), retainedHeapEnv+"="+path)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", path, err, out)
		}
		var n int64
		for _, line := range strings.Split(string(out), "\n") {
			if _, err := fmt.Sscanf(line, "retained=%d", &n); err == nil {
				return n
			}
		}
		t.Fatalf("%s: no measurement in\n%s", path, out)
		return 0
	}
	rebuilt, resumed := measure("rebuild"), measure("resume")
	t.Logf("retained heap: rebuilt %d bytes, resumed %d bytes", rebuilt, resumed)
	if float64(resumed) > 1.05*float64(rebuilt) {
		t.Fatalf("resumed index retains %d bytes, more than 1.05 × the rebuilt index's %d", resumed, rebuilt)
	}
}

// retainedHeap reports the heap a dynamic index restarted from a 2k-record
// DBLP checkpoint holds once collected: resumed on the checkpoint, or
// rebuilt from its stored documents.
func retainedHeap(t *testing.T, resume bool) int64 {
	_, gen, err := datagen.DBLP(datagen.DBLPOptions{Seed: 42}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*Document, len(gen))
	for i, d := range gen {
		docs[i] = &Document{id: d.ID, root: d.Root}
	}
	ix, err := Build(docs, Config{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix, docs, gen = nil, nil, nil
	cfg := Config{KeepDocuments: true}

	// Two collections each time: sync.Pool items survive the first.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var d *DynamicIndex
	if resume {
		d, err = ResumeDynamic(snap, cfg, 0)
	} else {
		var seed []*Document
		if seed, err = snap.StoredDocuments(); err == nil {
			d, err = BuildDynamic(seed, cfg, 0)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	snap = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestResumeDynamicRejects: a checkpoint that cannot seed a resume — none,
// one without its corpus, one whose value encoding differs from the
// config's — is refused before any log is opened.
func TestResumeDynamicRejects(t *testing.T) {
	docs := []*Document{walDoc(t, 1, "boston"), walDoc(t, 2, "chicago")}
	snapshot := func(cfg Config) *Index {
		ix, err := Build(docs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	cfg := Config{KeepDocuments: true, WALPath: walPath}
	if _, err := ResumeDynamic(nil, cfg, 0); err == nil {
		t.Fatal("resume from a nil checkpoint succeeded")
	}
	if _, err := ResumeDynamic(snapshot(Config{}), cfg, 0); err == nil || !strings.Contains(err.Error(), "KeepDocuments") {
		t.Fatalf("resume from a corpus-less checkpoint = %v", err)
	}
	if _, err := ResumeDynamic(snapshot(Config{KeepDocuments: true, ValueSpace: 64}), cfg, 0); err == nil {
		t.Fatal("resume over a different value space succeeded")
	}
	if _, err := ResumeDynamic(snapshot(Config{KeepDocuments: true, TextValues: true}), cfg, 0); err == nil {
		t.Fatal("resume over a different value representation succeeded")
	}
	if _, err := os.Stat(walPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused resume touched the log: %v", err)
	}
	cfg.ValueSpace = 64
	d, err := ResumeDynamic(snapshot(Config{KeepDocuments: true, ValueSpace: 64}), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if ids, err := d.Query("//L[text='chicago']"); err != nil || len(ids) != 1 {
		t.Fatalf("resumed query = %v, %v", ids, err)
	}
}

// TestReseedClearsDegradedHealth: a failed compaction degrades Health; a
// re-seed replaces the state that failure described, so Health is healthy
// again while the failure count stays.
func TestReseedClearsDegradedHealth(t *testing.T) {
	failing := true
	wrap := func(b engine.Builder) engine.Builder {
		return func(ctx context.Context, ds []*xmltree.Document) (engine.Engine, error) {
			if failing && len(ds) >= 3 {
				return nil, errors.New("injected compaction failure")
			}
			return b(ctx, ds)
		}
	}
	docs := []*Document{walDoc(t, 0, "boston"), walDoc(t, 1, "chicago"), walDoc(t, 2, "denver")}
	dyn, err := buildDynamic(docs[:1], Config{KeepDocuments: true}, 2, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Insert(docs[1]); err != nil {
		t.Fatal(err)
	}
	var ce *CompactionError
	if err := dyn.Insert(docs[2]); !errors.As(err, &ce) {
		t.Fatalf("insert that triggers the failing compaction = %v", err)
	}
	if h := dyn.Health(); !h.Degraded || h.FailedCompactions != 1 {
		t.Fatalf("health after a failed compaction = %+v", h)
	}
	failing = false
	ix, err := Build(docs, Config{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.ReseedFromSnapshot(ix, 3); err != nil {
		t.Fatal(err)
	}
	if h := dyn.Health(); h.Degraded || h.LastCompactionError != "" || h.FailedCompactions != 1 || h.Documents != 3 {
		t.Fatalf("health after re-seed = %+v", h)
	}
}
