package xseq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xseq/internal/engine"
	"xseq/internal/wal"
	"xseq/internal/xmltree"
)

func walDoc(t *testing.T, id int32, city string) *Document {
	t.Helper()
	d, err := ParseDocumentString(id, fmt.Sprintf(`<P><R><L>%s</L></R></P>`, city))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWALCrashRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	cfg := Config{WALPath: walPath}

	dyn, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 10; i++ {
		if err := dyn.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if dyn.AppliedSeq() != 10 {
		t.Fatalf("applied seq = %d", dyn.AppliedSeq())
	}
	// Crash: the process dies without Close. Every acknowledged insert was
	// fsynced, so a fresh process over the same log sees all of them.
	again, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	dyn.Close() // release the abandoned handle so the tempdir can go

	if again.NumDocuments() != 10 || again.AppliedSeq() != 10 {
		t.Fatalf("recovered docs=%d seq=%d", again.NumDocuments(), again.AppliedSeq())
	}
	ids, err := again.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("recovered query = %v", ids)
	}
	st := again.WALStats()
	if st == nil || st.ReplayedEntries != 10 || st.LastSeq != 10 {
		t.Fatalf("wal stats = %+v", st)
	}
	// Recovery is idempotent: inserts resume with the next seq and a third
	// replay sees the union.
	if err := again.Insert(walDoc(t, 10, "boston")); err != nil {
		t.Fatal(err)
	}
	if again.AppliedSeq() != 11 {
		t.Fatalf("resumed seq = %d", again.AppliedSeq())
	}
}

// TestWALRecoveryBuildsOnce: a restart indexes the initial corpus and the
// replayed log with exactly one build, skipping log entries the initial
// corpus already holds, and starts with nothing pending.
func TestWALRecoveryBuildsOnce(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	cfg := Config{WALPath: walPath}
	dyn, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*Document
	for i := int32(0); i < 12; i++ {
		docs = append(docs, walDoc(t, i, "boston"))
		if err := dyn.Insert(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.Close()

	calls := 0
	count := func(b engine.Builder) engine.Builder {
		return func(ctx context.Context, ds []*xmltree.Document) (engine.Engine, error) {
			calls++
			return b(ctx, ds)
		}
	}
	// Documents 0-3 stand in for a checkpoint whose log rotation never
	// landed: replay skips their entries.
	back, err := buildDynamic(docs[:4], cfg, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if calls != 1 {
		t.Fatalf("restart made %d Builder calls, want 1", calls)
	}
	if back.NumDocuments() != 12 || back.PendingDocuments() != 0 || back.AppliedSeq() != 12 {
		t.Fatalf("restart docs=%d pending=%d seq=%d", back.NumDocuments(), back.PendingDocuments(), back.AppliedSeq())
	}
	if ids, err := back.Query("//L[text='boston']"); err != nil || len(ids) != 12 {
		t.Fatalf("restart query = %v, %v", ids, err)
	}
}

func TestWALTornTailLenientAndStrict(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	dyn, err := BuildDynamic(nil, Config{WALPath: walPath}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Insert(walDoc(t, 1, "boston")); err != nil {
		t.Fatal(err)
	}
	if err := dyn.Insert(walDoc(t, 2, "chicago")); err != nil {
		t.Fatal(err)
	}
	dyn.Close()

	// Tear the tail: chop bytes off the last entry, as a crash mid-append
	// would.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict mode refuses the torn log with a typed error.
	_, err = BuildDynamic(nil, Config{WALPath: walPath, WALStrict: true}, 0)
	var cerr *WALCorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("strict open = %v, want *WALCorruptError", err)
	}

	// Default mode truncates at the tear and serves the durable prefix.
	dyn2, err := BuildDynamic(nil, Config{WALPath: walPath}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dyn2.Close()
	if dyn2.NumDocuments() != 1 || dyn2.AppliedSeq() != 1 {
		t.Fatalf("lenient recovery docs=%d seq=%d", dyn2.NumDocuments(), dyn2.AppliedSeq())
	}
	if st := dyn2.WALStats(); st.ReplayTruncatedBytes == 0 {
		t.Fatalf("truncation not reported: %+v", st)
	}
}

func TestWALCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	snapPath := filepath.Join(dir, "index.snap")
	cfg := Config{WALPath: walPath, KeepDocuments: true}

	dyn, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 6; i++ {
		if err := dyn.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatal(err)
		}
	}
	if err := dyn.Checkpoint(snapPath); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st := dyn.WALStats()
	if st.BaseSeq != 6 || st.Entries != 0 {
		t.Fatalf("wal after checkpoint: %+v", st)
	}
	// Post-checkpoint inserts land in the rotated log.
	for i := int32(6); i < 9; i++ {
		if err := dyn.Insert(walDoc(t, i, "chicago")); err != nil {
			t.Fatal(err)
		}
	}
	dyn.Close()

	// Restart recipe: snapshot corpus + same WAL path.
	snap, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := snap.StoredDocuments()
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 6 {
		t.Fatalf("snapshot holds %d docs", len(initial))
	}
	back, err := BuildDynamic(initial, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumDocuments() != 9 || back.AppliedSeq() != 9 {
		t.Fatalf("restart docs=%d seq=%d", back.NumDocuments(), back.AppliedSeq())
	}
	boston, _ := back.Query("//L[text='boston']")
	chicago, _ := back.Query("//L[text='chicago']")
	if len(boston) != 6 || len(chicago) != 3 {
		t.Fatalf("restart queries: boston=%v chicago=%v", boston, chicago)
	}
}

func TestWALCheckpointOverlapReplaySkips(t *testing.T) {
	// A crash between the snapshot landing and the log rotating leaves
	// entries in the log that the snapshot already covers; replay must
	// skip them, not fail on duplicate ids.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	snapPath := filepath.Join(dir, "index.snap")
	cfg := Config{WALPath: walPath, KeepDocuments: true}

	dyn, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 4; i++ {
		if err := dyn.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatal(err)
		}
	}
	if err := dyn.CheckpointContext(context.Background(), snapPath); err != nil {
		t.Fatal(err)
	}
	dyn.Close()
	// Undo the rotation by restoring a full log: rebuild one from scratch
	// with all four entries, so the snapshot (docs 0-3) and the log
	// (seqs 1-4) fully overlap.
	os.Remove(walPath)
	fresh, err := BuildDynamic(nil, Config{WALPath: walPath}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 4; i++ {
		if err := fresh.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatal(err)
		}
	}
	fresh.Close()

	snap, err := LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := snap.StoredDocuments()
	if err != nil {
		t.Fatal(err)
	}
	back, err := BuildDynamic(initial, cfg, 0)
	if err != nil {
		t.Fatalf("restart over overlapping log: %v", err)
	}
	defer back.Close()
	if back.NumDocuments() != 4 || back.AppliedSeq() != 4 {
		t.Fatalf("docs=%d seq=%d", back.NumDocuments(), back.AppliedSeq())
	}
}

func TestWALReplicationApply(t *testing.T) {
	dir := t.TempDir()
	primary, err := BuildDynamic(nil, Config{WALPath: filepath.Join(dir, "primary.wal")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := BuildDynamic(nil, Config{WALPath: filepath.Join(dir, "follower.wal")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i := int32(0); i < 5; i++ {
		if err := primary.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatal(err)
		}
	}
	// Tail the primary's log and apply each frame, as the HTTP follower
	// does.
	ctx := context.Background()
	for follower.AppliedSeq() < primary.AppliedSeq() {
		frames, n, _, err := primary.ReadWALFrames(follower.AppliedSeq()+1, 1<<20)
		if err != nil || n == 0 {
			t.Fatalf("read frames: n=%d err=%v", n, err)
		}
		rd := wal.NewReader(bytes.NewReader(frames), follower.AppliedSeq())
		for {
			seq, payload, err := rd.Next()
			if err != nil {
				break
			}
			if err := follower.ApplyReplicated(ctx, seq, payload); err != nil {
				t.Fatalf("apply seq %d: %v", seq, err)
			}
		}
	}
	// The follower answers identical queries.
	want, _ := primary.Query("//L[text='boston']")
	got, err := follower.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 5 {
		t.Fatalf("follower = %v, primary = %v", got, want)
	}
	// Out-of-order application is rejected.
	if err := follower.ApplyReplicated(ctx, 99, nil); err == nil {
		t.Fatal("gap accepted")
	}
	// A follower crash recovers from its own log and resumes at the right
	// position.
	follower.Close()
	back, err := BuildDynamic(nil, Config{WALPath: filepath.Join(dir, "follower.wal")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.AppliedSeq() != 5 || back.NumDocuments() != 5 {
		t.Fatalf("follower restart docs=%d seq=%d", back.NumDocuments(), back.AppliedSeq())
	}
}

func TestWALGroupCommitWindow(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	cfg := Config{WALPath: walPath, WALSyncWindow: 2 * time.Millisecond}
	dyn, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 20; i++ {
		if err := dyn.Insert(walDoc(t, i, "boston")); err != nil {
			t.Fatal(err)
		}
	}
	st := dyn.WALStats()
	if st.SyncedSeq != 20 {
		t.Fatalf("synced = %d", st.SyncedSeq)
	}
	dyn.Close()
	back, err := BuildDynamic(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumDocuments() != 20 {
		t.Fatalf("recovered %d docs", back.NumDocuments())
	}
}
