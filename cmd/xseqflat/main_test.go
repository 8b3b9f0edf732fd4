package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xseq"
)

// saveSnapshot builds an n-document index (optionally sharded) and saves it
// with SaveFile.
func saveSnapshot(t *testing.T, path string, n, shards int) {
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
	ix, err := xseq.Build(docs, xseq.Config{Shards: shards, KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestConvertAndCheck(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolithic", 0},
		{"sharded", 3},
	} {
		in := filepath.Join(dir, tc.name+".idx")
		out := filepath.Join(dir, tc.name+".flat")
		saveSnapshot(t, in, 5, tc.shards)
		// A single-partition SaveFile snapshot is already XSEQFLAT.
		if _, err := checkFlat(in); (err == nil) != (tc.shards == 0) {
			t.Fatalf("%s: check of the SaveFile snapshot: %v", tc.name, err)
		}
		summary, err := convert(in, out, true)
		if err != nil {
			t.Fatalf("%s: convert: %v", tc.name, err)
		}
		if !strings.Contains(summary, "5 documents") {
			t.Fatalf("%s: summary %q", tc.name, summary)
		}
		if summary, err = checkFlat(out); err != nil {
			t.Fatalf("%s: check: %v", tc.name, err)
		}
		if !strings.Contains(summary, "ok") {
			t.Fatalf("%s: check summary %q", tc.name, summary)
		}
		// The converted snapshot answers like the original.
		ix, err := xseq.LoadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := ix.Query("/rec/city[text='boston']")
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 5 {
			t.Fatalf("%s: converted snapshot returned %d ids", tc.name, len(ids))
		}
		ix.Close()
	}
}

func TestCheckRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "x.idx")
	out := filepath.Join(dir, "x.flat")
	saveSnapshot(t, in, 3, 0)
	if _, err := convert(in, out, false); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-8] ^= 0x04
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = checkFlat(out)
	if err == nil {
		t.Fatal("check accepted a damaged flat snapshot")
	}
	if exitCode(err) != exitCorrupt {
		t.Fatalf("exit code %d for %v, want %d", exitCode(err), err, exitCorrupt)
	}
}

func TestCheckRejectsShardedSnapshot(t *testing.T) {
	in := filepath.Join(t.TempDir(), "x.idx")
	saveSnapshot(t, in, 4, 2)
	if _, err := checkFlat(in); err == nil {
		t.Fatal("check accepted a sharded snapshot")
	}
}

func TestExitCodeClasses(t *testing.T) {
	if got := exitCode(nil); got != exitOK {
		t.Fatalf("nil → %d", got)
	}
	if got := exitCode(&xseq.CorruptError{Reason: "x"}); got != exitCorrupt {
		t.Fatalf("corrupt → %d", got)
	}
	if got := exitCode(os.ErrNotExist); got != exitData {
		t.Fatalf("data → %d", got)
	}
}

// TestBuildFlatFromCorpus covers the -data path: a corpus indexed straight
// into a flat snapshot.
func TestBuildFlatFromCorpus(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.xml")
	var sb strings.Builder
	sb.WriteString("<corpus>")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "<rec><title>t%d</title><city>boston</city></rec>", i)
	}
	sb.WriteString("</corpus>")
	if err := os.WriteFile(corpus, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "corpus.flat")
	summary, err := buildFlat(corpus, out, true)
	if err != nil {
		t.Fatalf("buildFlat: %v", err)
	}
	if !strings.Contains(summary, "4 documents") {
		t.Fatalf("summary %q", summary)
	}
	ix, err := xseq.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Layout() != xseq.LayoutFlat {
		t.Fatalf("layout = %s", ix.Layout())
	}
	ids, err := ix.Query("/rec/city[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("built snapshot returned %d ids", len(ids))
	}
}
