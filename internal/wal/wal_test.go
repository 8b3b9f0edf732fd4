package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xseq/internal/faultio"
	"xseq/internal/xmltree"
)

// collectApply returns an Apply callback recording (seq, payload copy).
type replayed struct {
	seq     uint64
	payload []byte
}

func collectApply(into *[]replayed) func(uint64, []byte) error {
	return func(seq uint64, payload []byte) error {
		*into = append(*into, replayed{seq, append([]byte(nil), payload...)})
		return nil
	}
}

// appendMu numbers appendNext's entries: like engine.Dynamic's serving
// mutex, it is held across choosing the sequence number and WriteRecord,
// and released before the durability wait.
var appendMu sync.Mutex

// appendNext writes payload under the next sequence number and waits until
// it is durable, returning the number — the insert path of engine.Dynamic.
func appendNext(ctx context.Context, w *WAL, payload []byte) (uint64, error) {
	appendMu.Lock()
	seq := w.LastSeq() + 1
	err := w.WriteRecord(seq, payload)
	appendMu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, w.WaitDurable(ctx, seq)
}

// appendAt writes payload under seq and waits until it is durable — how a
// follower applies a replicated entry.
func appendAt(ctx context.Context, w *WAL, seq uint64, payload []byte) error {
	if err := w.WriteRecord(seq, payload); err != nil {
		return err
	}
	return w.WaitDurable(ctx, seq)
}

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*WAL, ReplayStats) {
	t.Helper()
	w, st, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpWAL(t)
	w, st := mustOpen(t, path, Options{})
	if st.Entries != 0 || st.LastSeq != 0 {
		t.Fatalf("fresh log replayed %+v", st)
	}
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		seq, err := appendNext(ctx, w, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if w.LastSeq() != 5 || w.SyncedSeq() != 5 {
		t.Fatalf("last %d synced %d", w.LastSeq(), w.SyncedSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var got []replayed
	w2, st2 := mustOpen(t, path, Options{Apply: collectApply(&got)})
	defer w2.Close()
	if st2.Entries != 5 || st2.LastSeq != 5 || st2.TruncatedBytes != 0 {
		t.Fatalf("replay = %+v", st2)
	}
	for i, e := range got {
		want := fmt.Sprintf("payload-%d", i+1)
		if e.seq != uint64(i+1) || string(e.payload) != want {
			t.Fatalf("entry %d = (%d, %q), want (%d, %q)", i, e.seq, e.payload, i+1, want)
		}
	}
	// The log keeps appending where it left off.
	seq, err := appendNext(context.Background(), w2, []byte("six"))
	if err != nil || seq != 6 {
		t.Fatalf("resumed append = %d, %v", seq, err)
	}
}

func TestAppendRecordExplicitSeqsAndGaps(t *testing.T) {
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{})
	ctx := context.Background()
	if err := appendAt(ctx, w, 5, []byte("five")); err != nil {
		t.Fatalf("append seq 5: %v", err)
	}
	if err := appendAt(ctx, w, 9, []byte("nine")); err != nil {
		t.Fatalf("append seq 9 (gap): %v", err)
	}
	if err := appendAt(ctx, w, 9, []byte("dup")); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if err := appendAt(ctx, w, 3, []byte("backwards")); err == nil {
		t.Fatal("regressing seq accepted")
	}
	w.Close()

	var got []replayed
	_, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
	if st.Entries != 2 || st.LastSeq != 9 {
		t.Fatalf("replay = %+v", st)
	}
	if got[0].seq != 5 || got[1].seq != 9 {
		t.Fatalf("seqs = %d, %d", got[0].seq, got[1].seq)
	}
}

// buildLogBytes renders a complete WAL file image: header + framed entries.
func buildLogBytes(baseSeq uint64, payloads ...string) []byte {
	buf := encodeHeader(baseSeq)
	seq := baseSeq
	for _, p := range payloads {
		seq++
		buf = AppendEntry(buf, seq, []byte(p))
	}
	return buf
}

func TestTornTailTruncatesByDefault(t *testing.T) {
	full := buildLogBytes(0, "alpha", "beta", "gamma")
	whole := buildLogBytes(0, "alpha", "beta")
	// Cut the file mid-way through the third entry — the torn write a
	// crash between write and fsync leaves behind.
	for cut := int64(len(whole)) + 1; cut < int64(len(full)); cut += 3 {
		path := tmpWAL(t)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		tw := &faultio.TruncatingWriter{W: f, Limit: cut}
		if _, err := tw.Write(full); err != nil {
			t.Fatal(err)
		}
		f.Close()

		var got []replayed
		w, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
		if st.Entries != 2 || st.LastSeq != 2 {
			t.Fatalf("cut %d: replay = %+v", cut, st)
		}
		if st.TruncatedBytes != cut-int64(len(whole)) {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, st.TruncatedBytes, cut-int64(len(whole)))
		}
		// The tear is gone from disk: appending and re-replaying is clean.
		if _, err := appendNext(context.Background(), w, []byte("delta")); err != nil {
			t.Fatalf("cut %d: post-recovery append: %v", cut, err)
		}
		w.Close()
		var again []replayed
		w2, st2 := mustOpen(t, path, Options{Strict: true, Apply: collectApply(&again)})
		if st2.Entries != 3 || st2.TruncatedBytes != 0 {
			t.Fatalf("cut %d: second replay = %+v", cut, st2)
		}
		if string(again[2].payload) != "delta" || again[2].seq != 3 {
			t.Fatalf("cut %d: entry after recovery = %+v", cut, again[2])
		}
		w2.Close()
	}
}

func TestTornTailStrictModeFails(t *testing.T) {
	full := buildLogBytes(0, "alpha", "beta", "gamma")
	path := tmpWAL(t)
	if err := os.WriteFile(path, full[:len(full)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, Options{Strict: true})
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("strict open of torn log = %v, want *CorruptError", err)
	}
	// The file is untouched: lenient recovery afterwards still works.
	var got []replayed
	w, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
	defer w.Close()
	if st.Entries != 2 {
		t.Fatalf("lenient replay after strict refusal = %+v", st)
	}
}

func TestBitFlipTruncatesAtFlippedEntry(t *testing.T) {
	full := buildLogBytes(0, "alpha", "beta", "gamma")
	hdrAndFirst := len(buildLogBytes(0, "alpha"))
	// Flip a bit inside the second entry's frame (its checksum bytes).
	flipped := append([]byte(nil), full...)
	target := flipped[hdrAndFirst:]
	copy(target, faultio.FlipBit(target, 8*20))

	path := tmpWAL(t)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{Strict: true}); err == nil {
		t.Fatal("strict open of bit-flipped log succeeded")
	}
	var got []replayed
	w, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
	defer w.Close()
	if st.Entries != 1 || st.LastSeq != 1 {
		t.Fatalf("replay of bit-flipped log = %+v", st)
	}
	if st.TruncatedBytes != int64(len(full)-hdrAndFirst) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(full)-hdrAndFirst)
	}
}

func TestHeaderCorruptionAlwaysFatal(t *testing.T) {
	full := buildLogBytes(0, "alpha")
	for _, strict := range []bool{false, true} {
		path := tmpWAL(t)
		if err := os.WriteFile(path, faultio.FlipBit(full, 12*8), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(path, Options{Strict: strict})
		var cerr *CorruptError
		if !errors.As(err, &cerr) {
			t.Fatalf("strict=%v: open with flipped header = %v, want *CorruptError", strict, err)
		}
	}
	// A header cut short is equally fatal.
	path := tmpWAL(t)
	if err := os.WriteFile(path, full[:headerSize-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var cerr *CorruptError
	if _, _, err := Open(path, Options{}); !errors.As(err, &cerr) {
		t.Fatalf("open with truncated header = %v, want *CorruptError", err)
	}
}

func TestReplayIdempotentAcrossRepeatedCrashes(t *testing.T) {
	path := tmpWAL(t)
	ctx := context.Background()
	// Crash cycle: append, tear the tail, recover, append more — three
	// times; every recovery must see exactly the durable prefix.
	wantSeq := uint64(0)
	for cycle := 0; cycle < 3; cycle++ {
		var got []replayed
		w, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
		if st.LastSeq != wantSeq || st.Entries != int(wantSeq) {
			t.Fatalf("cycle %d: replay = %+v, want last seq %d", cycle, st, wantSeq)
		}
		for i := 0; i < 2; i++ {
			if _, err := appendNext(ctx, w, []byte(fmt.Sprintf("c%d-%d", cycle, i))); err != nil {
				t.Fatal(err)
			}
			wantSeq++
		}
		w.Close()
		// Tear: stomp a partial garbage frame onto the tail, as a crash
		// mid-append would.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x78, 0x57, 0x4c, 0x31, 0xff, 0x01}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	var got []replayed
	w, st := mustOpen(t, path, Options{Apply: collectApply(&got)})
	defer w.Close()
	if st.LastSeq != wantSeq || st.Entries != 6 {
		t.Fatalf("final replay = %+v, want 6 entries to seq %d", st, wantSeq)
	}
}

func TestApplyErrorAbortsOpen(t *testing.T) {
	path := tmpWAL(t)
	if err := os.WriteFile(path, buildLogBytes(0, "a", "b"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("apply boom")
	_, _, err := Open(path, Options{Apply: func(seq uint64, _ []byte) error {
		if seq == 2 {
			return boom
		}
		return nil
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("open = %v, want wrapped apply error", err)
	}
}

func TestRotateDropsCheckpointedEntries(t *testing.T) {
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{})
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		if _, err := appendNext(ctx, w, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats().SizeBytes
	if err := w.Rotate(6); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	st := w.Stats()
	if st.BaseSeq != 6 || st.Entries != 4 || st.LastSeq != 10 {
		t.Fatalf("after rotate: %+v", st)
	}
	if st.SizeBytes >= before {
		t.Fatalf("rotation did not shrink the log: %d -> %d", before, st.SizeBytes)
	}
	// Entries behind the checkpoint are gone; later ones still serve.
	if _, _, _, err := w.ReadFrames(6, 1<<20); !errors.Is(err, ErrRotated) {
		t.Fatalf("ReadFrames(6) = %v, want ErrRotated", err)
	}
	frames, n, last, err := w.ReadFrames(7, 1<<20)
	if err != nil || n != 4 || last != 10 {
		t.Fatalf("ReadFrames(7) = %d entries to %d, %v", n, last, err)
	}
	rd := NewReader(bytes.NewReader(frames), 6)
	seq, payload, err := rd.Next()
	if err != nil || seq != 7 || string(payload) != "p7" {
		t.Fatalf("first rotated-log frame = (%d, %q, %v)", seq, payload, err)
	}
	// Appends continue past the rotation, and a reopen replays only the
	// surviving suffix with the right base.
	if _, err := appendNext(ctx, w, []byte("p11")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got []replayed
	w2, st2 := mustOpen(t, path, Options{Strict: true, Apply: collectApply(&got)})
	defer w2.Close()
	if st2.BaseSeq != 6 || st2.Entries != 5 || st2.LastSeq != 11 {
		t.Fatalf("replay after rotate = %+v", st2)
	}
	if got[0].seq != 7 || got[4].seq != 11 {
		t.Fatalf("replayed seqs %d..%d", got[0].seq, got[4].seq)
	}
	// Rotating everything empties the log but preserves the numbering.
	if err := w2.Rotate(11); err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.Entries != 0 || st.BaseSeq != 11 || st.LastSeq != 11 {
		t.Fatalf("after full rotate: %+v", st)
	}
	if seq, err := appendNext(context.Background(), w2, []byte("p12")); err != nil || seq != 12 {
		t.Fatalf("append after full rotate = %d, %v", seq, err)
	}
}

func TestRotateBeyondDurableWatermarkRefused(t *testing.T) {
	w, _ := mustOpen(t, tmpWAL(t), Options{})
	if _, err := appendNext(context.Background(), w, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(99); err == nil {
		t.Fatal("rotate beyond the log accepted")
	}
}

func TestReadFramesBoundsAndEmpty(t *testing.T) {
	w, _ := mustOpen(t, tmpWAL(t), Options{})
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		if _, err := appendNext(ctx, w, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// maxBytes caps the batch but always admits at least one entry.
	frames, n, last, err := w.ReadFrames(1, 1)
	if err != nil || n != 1 || last != 1 {
		t.Fatalf("tiny budget = %d entries to %d, %v", n, last, err)
	}
	if len(frames) != entrySize(100) {
		t.Fatalf("frame bytes = %d", len(frames))
	}
	frames, n, last, err = w.ReadFrames(2, 2*entrySize(100))
	if err != nil || n != 2 || last != 3 {
		t.Fatalf("two-entry budget = %d entries to %d, %v", n, last, err)
	}
	rd := NewReader(bytes.NewReader(frames), 1)
	for want := uint64(2); want <= 3; want++ {
		seq, _, err := rd.Next()
		if err != nil || seq != want {
			t.Fatalf("frame seq = %d, %v, want %d", seq, err, want)
		}
	}
	// Beyond the head: nothing yet, no error — the long-poll's "not yet".
	if _, n, _, err := w.ReadFrames(6, 1<<20); err != nil || n != 0 {
		t.Fatalf("beyond head = %d entries, %v", n, err)
	}
}

func TestGroupCommitWindowConcurrentAppends(t *testing.T) {
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{SyncWindow: 2 * time.Millisecond})
	ctx := context.Background()
	const appenders, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := appendNext(ctx, w, []byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("append: %v", err)
	}
	st := w.Stats()
	if st.LastSeq != appenders*each || st.SyncedSeq != appenders*each {
		t.Fatalf("stats after concurrent appends: %+v", st)
	}
	// Group commit must have batched: far fewer fsyncs than appends.
	if st.Syncs >= st.Appends {
		t.Fatalf("no batching: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	w.Close()
	var got []replayed
	_, st2 := mustOpen(t, path, Options{Strict: true, Apply: collectApply(&got)})
	if st2.Entries != appenders*each {
		t.Fatalf("replay found %d entries", st2.Entries)
	}
}

func TestWaitSyncedLongPoll(t *testing.T) {
	w, _ := mustOpen(t, tmpWAL(t), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := w.WaitSynced(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait on empty log = %v", err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- w.WaitSynced(ctx, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := appendNext(context.Background(), w, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter woke with %v", err)
	}
}

func TestCloseIdempotentAndUnblocksWaiters(t *testing.T) {
	w, _ := mustOpen(t, tmpWAL(t), Options{SyncWindow: time.Hour})
	done := make(chan error, 1)
	go func() {
		done <- w.WaitSynced(context.Background(), 99)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter after close = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := appendNext(context.Background(), w, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
}

func TestGroupCommitWindowDurableBeforeReturn(t *testing.T) {
	// With a long window, Close's final sync is what makes entries
	// durable; an append must not outlive its durability wait wrongly.
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{SyncWindow: 3 * time.Millisecond})
	seq, err := appendNext(context.Background(), w, []byte("windowed"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if got := w.SyncedSeq(); got < seq {
		t.Fatalf("append returned before durable: synced %d < seq %d", got, seq)
	}
	w.Close()
}

func TestDocumentCodecRoundTrip(t *testing.T) {
	doc := &xmltree.Document{
		ID: 42,
		Root: xmltree.NewElem("rec",
			xmltree.NewElem("title", xmltree.NewValue("alpha & <beta>")),
			xmltree.NewElem("year", xmltree.NewValue("2005")),
		),
	}
	payload, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDocument(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 42 || back.Root.String() != doc.Root.String() {
		t.Fatalf("round trip = %d %s", back.ID, back.Root)
	}
	if _, err := EncodeDocument(nil); err == nil {
		t.Fatal("nil document encoded")
	}
	var cerr *CorruptError
	if _, err := DecodeDocument([]byte("junk")); !errors.As(err, &cerr) {
		t.Fatalf("junk payload = %v, want *CorruptError", err)
	}
}

func TestReaderStreamErrors(t *testing.T) {
	frames := AppendEntry(nil, 1, []byte("one"))
	frames = AppendEntry(frames, 2, []byte("two"))

	// Clean stream.
	rd := NewReader(bytes.NewReader(frames), 0)
	for want := uint64(1); want <= 2; want++ {
		seq, _, err := rd.Next()
		if err != nil || seq != want {
			t.Fatalf("next = %d, %v", seq, err)
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v", err)
	}

	// Cut mid-frame: ErrIncomplete, not EOF and not corruption.
	rd = NewReader(bytes.NewReader(frames[:len(frames)-3]), 0)
	rd.Next()
	if _, _, err := rd.Next(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("torn stream = %v", err)
	}

	// Out-of-order seq: corruption.
	bad := AppendEntry(nil, 5, []byte("five"))
	bad = AppendEntry(bad, 4, []byte("four"))
	rd = NewReader(bytes.NewReader(bad), 0)
	rd.Next()
	var cerr *CorruptError
	if _, _, err := rd.Next(); !errors.As(err, &cerr) {
		t.Fatalf("regressing stream = %v", err)
	}

	// Monotonicity seed: entries at or below firstAfter are rejected.
	rd = NewReader(bytes.NewReader(frames), 1)
	if _, _, err := rd.Next(); !errors.As(err, &cerr) {
		t.Fatalf("seq at base = %v, want *CorruptError", err)
	}
}

func TestStaleRotationStagingFileIsCleaned(t *testing.T) {
	path := tmpWAL(t)
	if err := os.WriteFile(path+".rotating", []byte("leftover from a crash mid-rotate"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, _ := mustOpen(t, path, Options{})
	defer w.Close()
	if _, err := os.Stat(path + ".rotating"); !os.IsNotExist(err) {
		t.Fatalf("staging file survived open: %v", err)
	}
}
