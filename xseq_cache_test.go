package xseq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xseq/internal/query"
)

// genDocs builds n small record documents with ids 0..n-1, shaped so the
// cacheQueries below have non-trivial, corpus-dependent answers.
func genDocs(t *testing.T, n int) []*Document {
	t.Helper()
	cities := []string{"boston", "newyork", "chicago"}
	docs := make([]*Document, 0, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(
			`<P><D><M>name%d</M><L>%s</L><U><N>part%d</N></U></D><R><L>%s</L></R></P>`,
			i, cities[i%len(cities)], i%4, cities[(i+1)%len(cities)])
		d, err := ParseDocumentString(int32(i), src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	return docs
}

var cacheQueries = []string{
	"/P/D/L[text='boston']",
	"//L[text='newyork']",
	"/P[R][D]",
	"/P/*/L",
	"//U/N[text='part2']",
	"//nothing",
}

// TestQueryCacheEquivalence is the headline acceptance check: with the
// cache on, every engine shape — monolithic, sharded, dynamic — returns
// id lists byte-identical to its cache-off twin, on cold and warm lookups.
func TestQueryCacheEquivalence(t *testing.T) {
	docs := genDocs(t, 12)
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"monolithic", Config{KeepDocuments: true}},
		{"sharded", Config{KeepDocuments: true, Shards: 3}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			plain, err := Build(docs, sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sh.cfg
			cfg.QueryCacheEntries = 32
			cached, err := Build(docs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range cacheQueries {
				want, err := plain.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // cold then warm
					got, err := cached.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDSlices(want, got) {
						t.Fatalf("%s pass %d: cached %v, uncached %v", q, pass, got, want)
					}
				}
				wantV, err := plain.QueryVerified(q)
				if err != nil {
					t.Fatal(err)
				}
				gotV, err := cached.QueryVerified(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDSlices(wantV, gotV) {
					t.Fatalf("%s verified: cached %v, uncached %v", q, gotV, wantV)
				}
			}
			qc := cached.Stats().QueryCache
			if qc == nil {
				t.Fatal("Stats().QueryCache is nil with the cache enabled")
			}
			if qc.Hits == 0 || qc.Misses == 0 {
				t.Fatalf("warm passes recorded no hits: %+v", qc)
			}
			if plain.Stats().QueryCache != nil {
				t.Fatal("Stats().QueryCache should be nil with the cache off")
			}
		})
	}

	t.Run("dynamic", func(t *testing.T) {
		plain, err := BuildDynamic(docs[:6], Config{}, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := BuildDynamic(docs[:6], Config{QueryCacheEntries: 32}, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs[6:] { // answers span main + delta
			if err := plain.Insert(d); err != nil {
				t.Fatal(err)
			}
			if err := cached.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range cacheQueries {
			want, err := plain.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := cached.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDSlices(want, got) {
					t.Fatalf("%s pass %d: cached %v, uncached %v", q, pass, got, want)
				}
			}
		}
		if cs := cached.CacheStats(); cs == nil || cs.Hits == 0 {
			t.Fatalf("dynamic cache stats = %+v, want hits > 0", cs)
		}
		if plain.CacheStats() != nil {
			t.Fatal("CacheStats should be nil with the cache off")
		}
	})
}

// TestErrUnsupportedSharded pins the typed capability-gap sentinel: the
// operations a sharded layout cannot do fail with errors wrapping
// ErrUnsupported, detectable via errors.Is.
func TestErrUnsupportedSharded(t *testing.T) {
	ix, err := Build(genDocs(t, 8), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EnablePagedIO(0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("EnablePagedIO on sharded = %v, want ErrUnsupported", err)
	}
	if _, err := ix.SchemaOutline(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("SchemaOutline on sharded = %v, want ErrUnsupported", err)
	}
}

// TestQueryCacheSwapHammer races queries through per-snapshot caches
// against Swapper.Swap flips between two indexes with different corpora.
// Each snapshot is immutable, so whichever snapshot a reader grabbed must
// answer exactly that snapshot's precomputed result — a stale cross-snapshot
// cache entry would surface as the other corpus's ids. Run with -race.
func TestQueryCacheSwapHammer(t *testing.T) {
	const q = "//L[text='boston']"
	build := func(docs []*Document) *Index {
		ix, err := Build(docs, Config{QueryCacheEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ixA := build(genDocs(t, 9))
	ixB := build(genDocs(t, 5))
	expect := map[*Index][]int32{}
	for _, ix := range []*Index{ixA, ixB} {
		ids, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		expect[ix] = ids
	}
	if sameIDSlices(expect[ixA], expect[ixB]) {
		t.Fatal("test needs corpora with different answers")
	}

	sw := NewSwapper(ixA)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 400; k++ {
			if k%2 == 0 {
				sw.Swap(ixB)
			} else {
				sw.Swap(ixA)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				cur := sw.Current()
				ids, err := cur.Query(q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !sameIDSlices(ids, expect[cur]) {
					t.Errorf("stale result: snapshot expects %v, cache served %v", expect[cur], ids)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryCacheDynamicHammer races cached queries against concurrent
// inserts and compactions on one DynamicIndex. Inserts only ever add
// matches, so every cached answer must be sandwiched between uncached
// answers taken immediately before and after it: before ⊆ cached ⊆ after.
// A stale entry served after an insert's generation bump would miss a
// document the "before" read already saw. Run with -race.
func TestQueryCacheDynamicHammer(t *testing.T) {
	docs := genDocs(t, 30)
	d, err := BuildDynamic(docs[:3], Config{QueryCacheEntries: 16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	pat := query.MustParse("//L[text='boston']")
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, doc := range docs[3:] {
			if err := d.Insert(doc); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 80; k++ {
				before, err := d.d.QueryContext(ctx, pat) // uncached
				if err != nil {
					t.Errorf("uncached query: %v", err)
					return
				}
				cached, err := d.Query("//L[text='boston']")
				if err != nil {
					t.Errorf("cached query: %v", err)
					return
				}
				after, err := d.d.QueryContext(ctx, pat) // uncached
				if err != nil {
					t.Errorf("uncached query: %v", err)
					return
				}
				if !subsetIDs(before, cached) || !subsetIDs(cached, after) {
					t.Errorf("stale cache: before %v, cached %v, after %v", before, cached, after)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Settled state: compact, then cached must equal uncached exactly.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	want, err := d.d.QueryContext(ctx, pat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSlices(want, got) {
		t.Fatalf("post-settle: cached %v, uncached %v", got, want)
	}
	if cs := d.CacheStats(); cs == nil {
		t.Fatal("CacheStats is nil with the cache enabled")
	}
}

// TestBuildDynamicSharded pins the tentpole rebuild-routing requirement:
// with Config.Shards > 1, the dynamic index's compactions run through the
// sharded build path (the main engine is sharded afterwards) and answers
// stay identical to the monolithic dynamic index over the same corpus.
func TestBuildDynamicSharded(t *testing.T) {
	docs := genDocs(t, 16)
	sharded, err := BuildDynamic(docs[:8], Config{Shards: 3}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := BuildDynamic(docs[:8], Config{}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[8:] {
		if err := sharded.Insert(doc); err != nil {
			t.Fatal(err)
		}
		if err := mono.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		t.Helper()
		for _, q := range cacheQueries {
			want, err := mono.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDSlices(want, got) {
				t.Fatalf("%s: sharded dynamic %v, monolithic dynamic %v", q, got, want)
			}
		}
	}
	check() // main + delta, pre-compaction
	if err := sharded.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := mono.Compact(); err != nil {
		t.Fatal(err)
	}
	if sharded.PendingDocuments() != 0 {
		t.Fatalf("pending after compact = %d", sharded.PendingDocuments())
	}
	// The compacted main engine really is sharded — the rebuild went
	// through the partitioned path, not the monolithic one.
	if got := sharded.Stats(); got.Shards != 3 || len(got.PerShard) != 3 {
		t.Fatalf("compacted main has %d shards, want 3", got.Shards)
	}
	if got := mono.Stats(); got.Shards != 0 || got.PerShard != nil {
		t.Fatalf("monolithic dynamic main reports shards: %+v", got.PerShard)
	}
	check() // post-compaction
}

// sameIDSlices reports a == b elementwise (nil and empty are equal).
func sameIDSlices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetIDs reports whether every id in a appears in b; both ascending.
func subsetIDs(a, b []int32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
