package index

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xseq/internal/query"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// The steady-state query path is built to be allocation-free: the per-query
// scratch (ins stack, epoch-stamp dedup array, collectDocs buffer,
// instantiation scratch) comes from a sync.Pool, and the only mandatory
// allocation left is the caller-owned result slice. These tests pin that
// property down with testing.AllocsPerRun so a regression — a map rebuilt
// per candidate, a stamp array re-made per query — fails CI instead of
// silently inflating the allocation profile.

// allocCorpus builds a warm index over a deterministic random corpus.
func allocCorpus(t testing.TB, n int, seed int64) (*Index, []*xmltree.Document) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var docs []*xmltree.Document
	for i := 0; i < n; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	return buildCS(t, docs, Options{KeepDocuments: true}), docs
}

func TestQueryAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	ix, _ := allocCorpus(t, 100, 7)
	ixBig, _ := allocCorpus(t, 400, 7)

	// Two bound tiers. Concrete patterns exercise the match kernel alone:
	// one instance, whose plan lives in the pooled scratch, so only its
	// instantiation plus the result copy is left — a tight bound.
	// Wildcard/descendant patterns additionally pay a broader
	// instantiation, whose allocations are a pattern×schema-sized constant
	// (bounded by InstantiationLimit), never O(corpus) — the looser bound
	// plus the 4x-corpus comparison pins that down.
	// The verified row has no candidates to check, so it prices Verify
	// itself: the id → document lookup is built once per index, and the
	// query must stay inside the concrete-pattern bound on both corpora.
	patterns := []struct {
		q   string
		qo  QueryOptions
		max float64
	}{
		{"/R[A][B]", QueryOptions{}, 24},
		{"//A", QueryOptions{}, 80},
		{"//B[C]", QueryOptions{}, 80},
		{"/R/*", QueryOptions{}, 80},
		{"//C[text='A']", QueryOptions{}, 80},
		{"/R/absent", QueryOptions{Verify: true}, 2},
	}
	for _, p := range patterns {
		pat := query.MustParse(p.q)
		var perIx [2]float64
		for i, c := range []struct {
			name string
			ix   *Index
		}{{"100docs", ix}, {"400docs", ixBig}} {
			if _, err := c.ix.QueryWithContext(context.Background(), pat, p.qo); err != nil { // warm the scratch pool
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, func() {
				if _, err := c.ix.QueryWithContext(context.Background(), pat, p.qo); err != nil {
					t.Fatal(err)
				}
			})
			perIx[i] = got
			t.Logf("%s %s: %.1f allocs/op", p.q, c.name, got)
			if got > p.max {
				t.Errorf("%s on %s: %.1f allocs/op, want <= %.0f", p.q, c.name, got, p.max)
			}
		}
		// A 4x corpus may enlarge the schema slightly (more distinct paths
		// to instantiate against) but must not scale the per-op allocation
		// count: no per-candidate map, no per-sequence stamp array, no
		// per-terminal doc slice.
		if perIx[1] > perIx[0]*1.5+8 {
			t.Errorf("%s: allocs scale with corpus: %.1f (100 docs) -> %.1f (400 docs)",
				p.q, perIx[0], perIx[1])
		}
	}
}

// TestScratchPoolConcurrentQueries hammers the shared scratch pool from many
// goroutines across two indexes with different corpus sizes (hence different
// stamp-array sizing needs), verifying every answer against the sequential
// one. Run with -race: a pooled buffer leaking across concurrent queries, or
// a stamp array handed to an index with a larger maxDocID, shows up here.
func TestScratchPoolConcurrentQueries(t *testing.T) {
	small, _ := allocCorpus(t, 20, 11)
	big, _ := allocCorpus(t, 300, 12)
	indexes := []*Index{small, big}

	queries := []*query.Pattern{
		query.MustParse("//A"),
		query.MustParse("//B[C]"),
		query.MustParse("/R/*"),
		query.MustParse("/R[A][B]"),
		query.MustParse("//C[text='A']"),
	}
	want := make([][][]int32, len(indexes))
	for i, ix := range indexes {
		want[i] = make([][]int32, len(queries))
		for j, q := range queries {
			ids, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = ids
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 60; k++ {
				ii := (g + k) % len(indexes)
				qi := (g * 3 / 2 * (k + 1)) % len(queries)
				got, err := indexes[ii].Query(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[ii][qi]) {
					t.Errorf("goroutine %d: index %d query %d diverged", g, ii, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
