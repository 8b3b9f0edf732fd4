package index

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xseq/internal/query"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// Queries on a frozen index are read-only and safe to run concurrently
// (without an attached pager, whose buffer pool is deliberately a single
// shared LRU). This test hammers one index from many goroutines; run with
// -race to verify the synchronization of the shared memoization caches.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var docs []*xmltree.Document
	for i := 0; i < 100; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})

	// A mix of concrete, wildcard, and descendant queries; expected
	// answers computed sequentially first.
	queries := []*query.Pattern{
		query.MustParse("//A"),
		query.MustParse("//B[C]"),
		query.MustParse("/R/*"),
		query.MustParse("/R[A][B]"),
		query.MustParse("//C[text='A']"),
	}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		ids, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				qi := (g + k) % len(queries)
				got, err := ix.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, want[qi]) {
					t.Errorf("goroutine %d: query %d diverged", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Text-mode queries walk character chains; the encoder must stay immutable
// during lookups for this to be safe.
func TestConcurrentTextQueries(t *testing.T) {
	ix := buildText(t, cityDocs())
	queries := []*query.Pattern{
		query.MustParse("/P/L[text='boston']"),
		query.MustParse("/P/L[text='bo*']"),
		query.MustParse("/P/L[text='newyork']"),
		query.MustParse("/P/L[text='zzz']"),
	}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		ids, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				qi := (g + k) % len(queries)
				got, err := ix.Query(queries[qi])
				if err != nil || !slices.Equal(got, want[qi]) {
					t.Errorf("goroutine %d: query %d diverged (%v)", g, qi, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
