package xseq

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xseq/internal/datagen"
)

// TestFlatEquivalence is the acceptance suite for the single-partition
// layouts: over the acceptance corpora, a build, its Save-Load copy, a
// mapped SaveFile-LoadFile copy of a Layout flat build and a reweighted
// rebuild answer plain, verified, explained, limited and naive queries as
// the tree-pattern matcher does.
func TestFlatEquivalence(t *testing.T) { checkAcceptance(t, 1) }

// TestFlatSnapshotRoundtrip covers the persistence surface: SaveFlatFile
// from a heap index, LoadFile sniffing the flat magic (the O(dictionary)
// mapped open), Save/Load stream round-trips of the flat index itself, and
// the sharded → flat conversion path.
func TestFlatSnapshotRoundtrip(t *testing.T) {
	docs := genCorpus(t, "xmark", 120)
	mono, err := Build(docs, Config{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "x.flat")
	if err := mono.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Layout() != "flat" {
		t.Fatalf("reloaded layout %q, want flat", back.Layout())
	}
	if err := back.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Stream round-trip: SaveFlat → Load sniffs the flat magic; the flat
	// index's own Save re-emits the identical bytes.
	var buf bytes.Buffer
	if err := mono.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	back2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back2.SaveFlat(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("flat SaveFlat of a flat index did not reproduce the bytes")
	}

	// Sharded → flat conversion rebuilds from the retained corpus.
	sh, err := Build(docs, Config{Shards: 3, KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	shPath := filepath.Join(dir, "from-sharded.flat")
	if err := sh.SaveFlatFile(shPath); err != nil {
		t.Fatal(err)
	}
	back3, err := LoadFile(shPath)
	if err != nil {
		t.Fatal(err)
	}
	defer back3.Close()

	// Without retained documents the conversion refuses with ErrUnsupported.
	shBare, err := Build(docs, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := shBare.SaveFlat(&bytes.Buffer{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sharded-without-docs SaveFlat error = %v, want ErrUnsupported", err)
	}

	for _, q := range []string{datagen.XMarkQ1, "//date", "/site/*"} {
		want, _ := mono.Query(q)
		for i, ix := range []*Index{back, back2, back3} {
			got, err := ix.Query(q)
			if err != nil {
				t.Fatalf("copy %d: %s: %v", i, q, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("copy %d: %s: %v, want %v", i, q, got, want)
			}
		}
	}
}

// TestFlatBuildConfigValidation: Layout is validated up front.
func TestFlatBuildConfigValidation(t *testing.T) {
	docs := genCorpus(t, "xmark", 5)
	if _, err := Build(docs, Config{Layout: "zoned"}); err == nil {
		t.Fatal("unknown Layout accepted")
	}
	if _, err := Build(docs, Config{Layout: LayoutFlat, Shards: 2}); err == nil {
		t.Fatal("Layout=flat with Shards>1 accepted")
	}
}

// TestFlatCorruptSnapshot: a damaged flat snapshot never displaces a
// serving one. Damage in the dictionary head fails LoadFile itself; damage
// in the bulk sections passes the O(dictionary) open but is caught by the
// Swapper's full verification sweep before publishing. Either way the old
// snapshot keeps answering.
func TestFlatCorruptSnapshot(t *testing.T) {
	docs := genCorpus(t, "xmark", 60)
	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.flat")
	if err := mono.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwapper(good)
	// Replacements arrive by atomic rename (SaveFlatFile's contract): the
	// serving snapshot mmaps the old inode, which an in-place overwrite
	// would mutate underneath it.
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
	// Flip a bit at several depths: header, dictionary head, bulk payload.
	for _, off := range []int{9, len(blob) / 8, len(blob) / 2, len(blob) - 4} {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x20
		replace(mut)
		cur, err := sw.SwapFromFile(path)
		if err == nil {
			t.Fatalf("flip at %d: SwapFromFile accepted a corrupt flat snapshot", off)
		}
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("flip at %d: error %v, want *CorruptError", off, err)
		}
		if cur != good || sw.Current() != good {
			t.Fatalf("flip at %d: corrupt reload displaced the serving snapshot", off)
		}
		if _, err := sw.Current().QueryContext(context.Background(), "//date"); err != nil {
			t.Fatalf("flip at %d: surviving snapshot cannot answer: %v", off, err)
		}
	}
	// Intact file swaps in fine afterwards.
	replace(blob)
	if _, err := sw.SwapFromFile(path); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
}
