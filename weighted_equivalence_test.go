package xseq

import (
	"bytes"
	"context"
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/flat"
	"xseq/internal/sequence"
)

// xmarkWeights is a plausible hot-path vector for the XMark-like corpus —
// the shape the adaptive loop derives when person lookups dominate.
var xmarkWeights = map[string]float64{
	"site":                           2,
	"site/people":                    4,
	"site/people/person":             5,
	"site/regions":                   1.5,
	unknownXMarkPath:                 3, // skipped by every rebuild
	"site/people/person/profile/age": 4.2,
}

// unknownXMarkPath is a path the XMark-like corpus lacks.
const unknownXMarkPath = "site/no/such/path"

// xmarkCorpusWeights is xmarkWeights without unknownXMarkPath, which a
// single-partition Build refuses.
func xmarkCorpusWeights() map[string]float64 {
	w := maps.Clone(xmarkWeights)
	delete(w, unknownXMarkPath)
	return w
}

var xmarkQueries = []string{
	datagen.XMarkQ1,
	datagen.XMarkQ2,
	datagen.XMarkQ3,
	"/site//person/name",
	"//item/location",
	"//date",
	"/site/*",
}

// TestWeightedEquivalenceAcrossLayouts: re-sequencing the data around a
// weight vector reorders storage, never answers. Built with Config.Weights,
// every constructor answers the XMark queries as the tree-pattern matcher
// does.
func TestWeightedEquivalenceAcrossLayouts(t *testing.T) {
	cfg := Config{Weights: xmarkCorpusWeights()}
	checkCorpus(t, genCorpus(t, "xmark", 120), xmarkQueries, cfg, 0, xmarkWeights)
}

// TestWeightedSnapshotRoundtrip pins the persistence contract the adaptive
// loop depends on: the weights live in the schema, so a weighted snapshot
// saved and reloaded computes the same weighted priorities — and still
// answers exactly like an unweighted index.
func TestWeightedSnapshotRoundtrip(t *testing.T) {
	docs := genCorpus(t, "xmark", 120)
	base, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Build(docs, Config{Weights: xmarkCorpusWeights(), KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	heap := filepath.Join(dir, "weighted.idx")
	if err := weighted.SaveFile(heap); err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, "weighted.flat")
	if err := weighted.SaveFlatFile(flatPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{heap, flatPath} {
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, q := range xmarkQueries {
			want, _ := base.Query(q)
			got, err := back.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", path, q, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s: reloaded %v, want %v", path, q, got, want)
			}
		}
		back.Close()
	}
}

// TestWeightedBuildSavesRebuildBytes: a build weighted by Config.Weights
// and RebuildWithWeights of an unweighted build are the same index; the
// rebuild skips the path the corpus lacks.
func TestWeightedBuildSavesRebuildBytes(t *testing.T) {
	docs := genCorpus(t, "xmark", 120)
	save := func(ix *Index, err error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err == nil {
			err = ix.Save(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base, err := Build(docs, Config{KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	built := save(Build(docs, Config{Weights: xmarkCorpusWeights(), KeepDocuments: true}))
	rebuilt := save(base.RebuildWithWeights(context.Background(), xmarkWeights))
	if !bytes.Equal(built, rebuilt) {
		t.Fatalf("weighted Build saves %d bytes, RebuildWithWeights %d bytes that differ", len(built), len(rebuilt))
	}
	if bytes.Equal(built, save(base, nil)) {
		t.Fatal("the weights left the snapshot unchanged")
	}
}

// TestRebuildWithWeightsEquivalence: re-sequencing a serving index around
// a weight vector keeps its layout and shape on every static layout, and
// without the corpus there is nothing to rebuild from. FuzzEquivalence
// checks the rebuilt index's answers.
func TestRebuildWithWeightsEquivalence(t *testing.T) {
	docs := genCorpus(t, "xmark", 150)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"monolithic", Config{KeepDocuments: true}},
		{"sharded", Config{Shards: 3, KeepDocuments: true}},
		{"flat", Config{Layout: LayoutFlat, KeepDocuments: true}},
	} {
		ix, err := Build(docs, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rebuilt, err := ix.RebuildWithWeights(context.Background(), xmarkWeights)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", tc.name, err)
		}
		if rebuilt.Layout() != ix.Layout() {
			t.Fatalf("%s: rebuild changed layout %s → %s", tc.name, ix.Layout(), rebuilt.Layout())
		}
		if st, rst := ix.Stats(), rebuilt.Stats(); rst.Documents != st.Documents || rst.Shards != st.Shards {
			t.Fatalf("%s: rebuild changed shape %+v → %+v", tc.name, st, rst)
		}
		rebuilt.Close()
		ix.Close()
	}

	// Without the corpus there is nothing to rebuild from.
	bare, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.RebuildWithWeights(context.Background(), xmarkWeights); err == nil {
		t.Fatal("RebuildWithWeights should fail without KeepDocuments")
	}
}

// TestDynamicResequenceEquivalence drives the dynamic engine's in-place
// forced rebuild: it re-sequences the main index around the weight vector,
// later inserts land in the index, and the vector sticks across the
// compaction they trigger. FuzzEquivalence checks the answers.
func TestDynamicResequenceEquivalence(t *testing.T) {
	all := genCorpus(t, "xmark", 120)
	di, err := BuildDynamic(all[:100], Config{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	// The main index's schema carries the vector it was sequenced by.
	weight := func() float64 {
		sch := di.d.Main().(*flat.Index).Strategy().(*sequence.Probability).Model.Schema()
		return sch.FindByNamePath([]string{"site", "people", "person"}).Weight
	}
	if err := di.Resequence(context.Background(), xmarkWeights); err != nil {
		t.Fatalf("resequence: %v", err)
	}
	if got := weight(); got != 5 {
		t.Fatalf("site/people/person weighs %v after Resequence, want 5", got)
	}
	compactions := di.Health().Compactions
	for _, d := range all[100:] {
		if err := di.Insert(d); err != nil {
			t.Fatalf("insert after resequence: %v", err)
		}
	}
	if di.NumDocuments() != len(all) || di.Health().Compactions == compactions {
		t.Fatalf("%d documents after %d compactions; want %d and a compaction", di.NumDocuments(), di.Health().Compactions, len(all))
	}
	if got := weight(); got != 5 {
		t.Fatalf("site/people/person weighs %v after a compaction, want 5", got)
	}
}
