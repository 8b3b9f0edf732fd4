package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"xseq/internal/faultio"
)

// TestRotateCrashBetweenRenameAndDirSync drives a crash into Rotate's
// narrowest window: the staged new log has been renamed over the old one
// but the directory fsync has not happened. Depending on whether the
// directory entry made it to disk, a restart sees either the complete old
// log or the complete new log — the test replays both on-disk images and
// asserts each one is a consistent prefix of history, never a torn hybrid.
func TestRotateCrashBetweenRenameAndDirSync(t *testing.T) {
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{})
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		if _, err := appendNext(ctx, w, []byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	// preImage is what a crash before the rename reaches disk leaves (the
	// old directory entry still pointing at the full log).
	preImage, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pre-image: %v", err)
	}

	var postImage []byte
	testHookRotateAfterRename = func() error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		postImage = b
		return faultio.ErrInjected
	}
	defer func() { testHookRotateAfterRename = nil }()

	if err := w.Rotate(6); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Rotate with injected crash = %v, want ErrInjected", err)
	}
	// The aborted Rotate leaves the in-memory WAL describing a file that no
	// longer matches disk — a crashed process. Discard it like one.
	w.Close()
	if postImage == nil {
		t.Fatal("hook never captured the post-rename image")
	}

	cases := []struct {
		name      string
		image     []byte
		wantBase  uint64
		wantFirst uint64
		wantLast  uint64
	}{
		{"dir-entry-lost", preImage, 0, 1, 10},
		{"dir-entry-durable", postImage, 6, 7, 10},
	}
	for _, tc := range cases {
		for _, strict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/strict=%v", tc.name, strict), func(t *testing.T) {
				p := tmpWAL(t)
				if err := os.WriteFile(p, tc.image, 0o644); err != nil {
					t.Fatalf("write image: %v", err)
				}
				var got []replayed
				w2, st := mustOpen(t, p, Options{Apply: collectApply(&got), Strict: strict})
				defer w2.Close()
				if st.TruncatedBytes != 0 {
					t.Fatalf("consistent image replayed with %d truncated bytes", st.TruncatedBytes)
				}
				if w2.BaseSeq() != tc.wantBase {
					t.Fatalf("base seq %d, want %d", w2.BaseSeq(), tc.wantBase)
				}
				wantN := int(tc.wantLast - tc.wantFirst + 1)
				if len(got) != wantN {
					t.Fatalf("replayed %d entries, want %d", len(got), wantN)
				}
				for i, e := range got {
					wantSeq := tc.wantFirst + uint64(i)
					wantPayload := fmt.Sprintf("entry-%d", wantSeq)
					if e.seq != wantSeq || string(e.payload) != wantPayload {
						t.Fatalf("entry %d = (%d, %q), want (%d, %q)",
							i, e.seq, e.payload, wantSeq, wantPayload)
					}
				}
			})
		}
	}
}

// TestResetStartsFreshLogAtBase exercises the follower re-seed primitive:
// Reset discards every entry, restarts the log at the snapshot's base, and
// keeps accepting appends above it.
func TestResetStartsFreshLogAtBase(t *testing.T) {
	path := tmpWAL(t)
	w, _ := mustOpen(t, path, Options{})
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		if _, err := appendNext(ctx, w, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	if err := w.Reset(42); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	st := w.Stats()
	if st.BaseSeq != 42 || st.LastSeq != 42 || st.Entries != 0 {
		t.Fatalf("after Reset: base %d last %d entries %d, want 42/42/0",
			st.BaseSeq, st.LastSeq, st.Entries)
	}
	if w.SyncedSeq() != 42 {
		t.Fatalf("synced seq %d after Reset, want 42", w.SyncedSeq())
	}
	// The pre-reset history is gone: asking for it reports rotation, the
	// signal the serving layer turns into 410.
	if _, _, _, err := w.ReadFrames(3, 1<<20); !errors.Is(err, ErrRotated) {
		t.Fatalf("ReadFrames(3) after Reset = %v, want ErrRotated", err)
	}

	// Replication resumes right above the base.
	if err := appendAt(ctx, w, 43, []byte("new-43")); err != nil {
		t.Fatalf("append seq 43 after Reset: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var got []replayed
	w2, st2 := mustOpen(t, path, Options{Apply: collectApply(&got), Strict: true})
	defer w2.Close()
	if w2.BaseSeq() != 42 || st2.Entries != 1 || st2.LastSeq != 43 {
		t.Fatalf("reopened: base %d entries %d last %d, want 42/1/43",
			w2.BaseSeq(), st2.Entries, st2.LastSeq)
	}
	if len(got) != 1 || got[0].seq != 43 || string(got[0].payload) != "new-43" {
		t.Fatalf("replayed %+v, want one entry (43, new-43)", got)
	}
}
