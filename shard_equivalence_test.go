package xseq

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/shard"
)

// genCorpus converts a datagen corpus into public-API documents.
func genCorpus(t *testing.T, name string, n int) []*Document {
	t.Helper()
	var docs []*Document
	switch name {
	case "xmark":
		_, gen, err := datagen.XMark(datagen.XMarkOptions{Seed: 11}, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range gen {
			docs = append(docs, &Document{id: d.ID, root: d.Root})
		}
	default:
		p, err := datagen.ParseSynthName(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = 11
		_, gen, err := datagen.Synth(p, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range gen {
			docs = append(docs, &Document{id: d.ID, root: d.Root})
		}
	}
	return docs
}

// acceptanceCorpora are the XMark-like corpus and a synthetic one, each
// with its queries and a weight vector.
var acceptanceCorpora = []struct {
	corpus  string
	queries []string
	weights map[string]float64
}{
	{"xmark", xmarkQueries, xmarkWeights},
	{"L3F5A25I0P40", []string{"/e1", "/e1/e2", "//e3", "/e1/*", "//e2//*"}, map[string]float64{"e1/e2": 3}},
}

// checkAcceptance runs the oracle on 120 documents of each acceptance
// corpus, over the constructors layouts selects (see oracleCase).
func checkAcceptance(t *testing.T, layouts int) {
	for _, c := range acceptanceCorpora {
		t.Run(c.corpus, func(t *testing.T) {
			checkCorpus(t, genCorpus(t, c.corpus, 120), c.queries, Config{}, layouts, c.weights)
		})
	}
}

// TestShardedEquivalence is the acceptance suite for the sharded engine:
// over the acceptance corpora, indexes of 2, 3 and 8 shards, and a
// reweighted rebuild of 3, answer plain, verified, explained, limited and
// naive queries as the tree-pattern matcher does.
func TestShardedEquivalence(t *testing.T) { checkAcceptance(t, 2) }

// TestShardedSnapshotRoundtrip drives the sharded format through the
// public persistence API: SaveFile writes the sharded container, LoadFile
// sniffs the magic and restores it, and queries still match monolithic.
func TestShardedSnapshotRoundtrip(t *testing.T) {
	docs := genCorpus(t, "xmark", 120)
	sh, err := Build(docs, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.idx")
	if err := sh.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := back.Stats(); st.Shards != 4 {
		t.Fatalf("reloaded Stats().Shards = %d, want 4", st.Shards)
	}
	// Stream round-trip through Load's magic sniffing too.
	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{datagen.XMarkQ1, "//date", "/site/*"} {
		want, _ := mono.Query(q)
		for i, ix := range []*Index{back, back2} {
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

// TestShardedEmptyFirstShard: a sharded index whose shard 0 holds no
// document saves, converts to one partition and rebuilds under weights.
func TestShardedEmptyFirstShard(t *testing.T) {
	var docs []*Document
	for _, d := range genCorpus(t, "xmark", 40) {
		if shard.ShardOf(d.id, shard.DefaultSeed, 8) != 0 {
			docs = append(docs, d)
		}
	}
	sh, err := Build(docs, Config{Shards: 8, KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Save(io.Discard); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := sh.SaveFlat(io.Discard); err != nil {
		t.Fatalf("SaveFlat: %v", err)
	}
	if _, err := sh.RebuildWithWeights(context.Background(), xmarkWeights); err != nil {
		t.Fatalf("RebuildWithWeights: %v", err)
	}
}

// TestShardedCorruptSnapshot: a damaged sharded snapshot fails LoadFile
// with *CorruptError (never a panic), and a Swapper keeps serving the
// previous snapshot when a hot reload hits the damage.
func TestShardedCorruptSnapshot(t *testing.T) {
	docs := genCorpus(t, "xmark", 60)
	sh, err := Build(docs, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.idx")
	if err := sh.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path)
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("LoadFile error = %v, want *CorruptError", err)
	}
	sw := NewSwapper(good)
	cur, err := sw.SwapFromFile(path)
	if err == nil {
		t.Fatal("SwapFromFile accepted a corrupt sharded snapshot")
	}
	if cur != good || sw.Current() != good {
		t.Fatal("corrupt reload displaced the serving snapshot")
	}
	if _, err := sw.Current().QueryContext(context.Background(), "//date"); err != nil {
		t.Fatalf("surviving snapshot cannot answer: %v", err)
	}
}

// TestBuildShardConfigValidation: negative sharding config is rejected up
// front.
func TestBuildShardConfigValidation(t *testing.T) {
	docs := genCorpus(t, "xmark", 5)
	if _, err := Build(docs, Config{Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if _, err := Build(docs, Config{BuildWorkers: -1}); err == nil {
		t.Fatal("negative BuildWorkers accepted")
	}
}
