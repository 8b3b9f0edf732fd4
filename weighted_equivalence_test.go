package xseq

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/flat"
)

// xmarkWeights is a plausible hot-path vector for the XMark-like corpus —
// the shape the adaptive loop derives when person lookups dominate.
var xmarkWeights = map[string]float64{
	"site":                   2,
	"site/people":            4,
	"site/people/person":     5,
	"site/regions":           1.5,
	"site/no/such/path":      3, // unknown paths are skipped, never fatal
	"site/people/person/age": 4.2,
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
// weight vector reorders storage, never answers. Built under the weighted
// strategy, every constructor answers the XMark queries as the
// tree-pattern matcher does.
func TestWeightedEquivalenceAcrossLayouts(t *testing.T) {
	cfg := Config{Strategy: StrategyWeighted, Weights: xmarkWeights}
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
	weighted, err := Build(docs, Config{Strategy: StrategyWeighted, Weights: xmarkWeights, KeepDocuments: true})
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
// forced rebuild: it re-sequences the main index under the weighted
// strategy, later inserts land in the index, and the weight vector sticks
// across the compaction they trigger. FuzzEquivalence checks the answers.
func TestDynamicResequenceEquivalence(t *testing.T) {
	all := genCorpus(t, "xmark", 120)
	di, err := BuildDynamic(all[:100], Config{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	strategy := func() string { return di.d.Main().(*flat.Index).Strategy().Name() }
	if err := di.Resequence(context.Background(), xmarkWeights); err != nil {
		t.Fatalf("resequence: %v", err)
	}
	if got := strategy(); got != StrategyWeighted {
		t.Fatalf("main index sequenced by %s after Resequence, want %s", got, StrategyWeighted)
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
	if got := strategy(); got != StrategyWeighted {
		t.Fatalf("main index sequenced by %s after a compaction, want %s", got, StrategyWeighted)
	}
}
