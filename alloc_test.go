package xseq

// Allocation-regression tests over the public API: the steady-state Query
// path on a warm index must perform a small fixed number of allocations per
// operation on every engine layout — monolithic, sharded, and dynamic. The
// kernel-level counterpart (pre-parsed patterns, tighter bounds) lives in
// internal/index/alloc_test.go; here the per-op cost includes query-string
// parsing, so the bounds are layout-shaped constants, and the point is that
// none of them scale with corpus size or shard contents.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/query"
	"xseq/internal/telemetry"
)

// allocDocs generates a deterministic synthetic corpus as public Documents.
func allocDocs(t testing.TB, n int) []*Document {
	t.Helper()
	_, inner, err := datagen.Synth(datagen.SynthParams{L: 3, F: 5, A: 25, I: 10, P: 40, Seed: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*Document, len(inner))
	for i, d := range inner {
		docs[i] = &Document{id: d.ID, root: d.Root}
	}
	return docs
}

// queryFn adapts the two index types to one measurement loop.
type queryFn func(q string) ([]int32, error)

func TestQueryAllocsAllLayouts(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	docs := allocDocs(t, 200)

	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(docs, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(docs, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	flatPaged := flatServed(t, docs)

	queries := []string{"/n0", "/n0/n1", "//n2", "/n0/*"}

	// Bounds are per-layout constants: the sharded fan-out spawns one
	// goroutine per shard and merges per-shard results, so its fixed cost
	// is O(shards) allocations on top of the monolithic kernel's; the
	// dynamic engine with an empty delta adds only its dispatch; the flat
	// engine reads the mapped bytes through the same pooled scratch as the
	// monolithic kernel, so it shares its bound, and its served page
	// accounting (a pooled per-query pager) adds nothing. Parsing the query
	// string is included (a handful of pattern nodes).
	layouts := []struct {
		name  string
		query queryFn
		max   float64
	}{
		{"monolithic", mono.Query, 60},
		{"sharded", sharded.Query, 160},
		{"dynamic", dyn.Query, 60},
		{"flat", flat.Query, 60},
		{"flat, accounting attached", flatPaged.Query, 60},
	}
	for _, l := range layouts {
		for _, q := range queries {
			if _, err := l.query(q); err != nil { // warm pools across all shards
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(50, func() {
				if _, err := l.query(q); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s %s: %.1f allocs/op", l.name, q, got)
			if got > l.max {
				t.Errorf("%s %s: %.1f allocs/op, want <= %.0f", l.name, q, got, l.max)
			}
		}
	}
}

// flatServed builds a flat index with page accounting attached the way
// xseqd serves one: a pool that holds every page of the file.
func flatServed(t testing.TB, docs []*Document) *Index {
	t.Helper()
	ix, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EnablePagedIO(int(ix.Stats().Flat.Pages)); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestQueryAllocsTwigs holds the kernel to the shape of query the benchmark
// serves: branching twigs over identical siblings with value predicates,
// one through a `*` step, on an XMark-like corpus — where the choice of
// identical-sibling orders and the sibling-cover stack do real work, unlike
// the path patterns above — and to broad `//`-rooted patterns, whose
// descendant steps resolve from the path table's interval labels without a
// walk. The bounds are the measured
// counts; heap and flat share one kernel, so they must also be equal.
func TestQueryAllocsTwigs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	_, inner, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 42}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*Document, len(inner))
	for i, d := range inner {
		docs[i] = &Document{id: d.ID, root: d.Root}
	}
	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	flatPaged := flatServed(t, docs)
	sharded, err := Build(docs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(docs, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	twigs := []struct {
		q                      string
		mono, sharded, dynamic float64
	}{
		{"/site/regions/namerica/item[incategory[text='category2']][incategory[text='category61']]", 56, 104, 57},
		{"/site/people/person/*[interest[text='category1']][interest[text='category7']]", 63, 118, 64},
		{"//item[incategory[text='category2']][incategory[text='category61']]", 40, 78, 41},
		{"//open_auction/bidder/*", 51, 105, 52},
	}
	for _, tw := range twigs {
		measure := func(name string, query queryFn, max float64) float64 {
			ids, err := query(tw.q) // warm pools across all shards
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				t.Fatalf("%s %s: no answers; the twig no longer exercises a terminal match", name, tw.q)
			}
			got := testing.AllocsPerRun(50, func() {
				if _, err := query(tw.q); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s %s: %.1f allocs/op", name, tw.q, got)
			if got > max {
				t.Errorf("%s %s: %.1f allocs/op, want <= %.0f", name, tw.q, got, max)
			}
			return got
		}
		heap := measure("monolithic", mono.Query, tw.mono)
		if fl := measure("flat", flat.Query, tw.mono); fl != heap {
			t.Errorf("%s: flat %.1f allocs/op, monolithic %.1f: one kernel must cost the same on both", tw.q, fl, heap)
		}
		if fl := measure("flat, accounting attached", flatPaged.Query, tw.mono); fl != heap {
			t.Errorf("%s: flat with accounting %.1f allocs/op, monolithic %.1f: served accounting must add none", tw.q, fl, heap)
		}
		measure("sharded", sharded.Query, tw.sharded)
		measure("dynamic", dyn.Query, tw.dynamic)
	}
}

// TestQueryAllocsTraced re-measures every layout with a context-borne
// telemetry trace, the way the server runs each request. The per-op cost
// adds a pooled trace fetch, one context value, and the kernel-counter
// recording — all of which must fit inside the same per-layout bounds as
// the untraced path, so enabling observability can never regress the
// zero-alloc guarantee.
func TestQueryAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	docs := allocDocs(t, 200)

	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(docs, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(docs, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"/n0", "/n0/n1", "//n2", "/n0/*"}
	layouts := []struct {
		name  string
		query func(ctx context.Context, q string) ([]int32, error)
		max   float64
	}{
		{"monolithic", mono.QueryContext, 60},
		{"sharded", sharded.QueryContext, 160},
		{"dynamic", dyn.QueryContext, 60},
		{"flat", flat.QueryContext, 60},
	}
	for _, l := range layouts {
		for _, q := range queries {
			run := func() {
				tr := telemetry.GetTrace()
				ctx := telemetry.WithTrace(context.Background(), tr)
				if _, err := l.query(ctx, q); err != nil {
					t.Fatal(err)
				}
				telemetry.PutTrace(tr)
			}
			run() // warm pools (scratch across all shards + trace pool)
			got := testing.AllocsPerRun(50, run)
			t.Logf("%s %s traced: %.1f allocs/op", l.name, q, got)
			if got > l.max {
				t.Errorf("%s %s traced: %.1f allocs/op, want <= %.0f", l.name, q, got, l.max)
			}
		}
	}
}

// TestQueryAllocsAdaptiveServing measures the full adaptive-serving query
// path: a traced query plus the pattern-frequency recording that feeds the
// resequencer's weight derivation. The adaptive loop itself runs in the
// background off the serving path, so its only per-query cost is that one
// bounded top-K update — which must fit inside the same per-layout bounds
// as plain traced serving. A regression here means enabling -adaptive
// taxes every query, not just rebuilds.
func TestQueryAllocsAdaptiveServing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	docs := allocDocs(t, 200)

	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(docs, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(docs, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"/n0", "/n0/n1", "//n2", "/n0/*"}
	// The server canonicalizes each request's pattern once at admission;
	// the steady-state table key is therefore a ready string.
	canon := make(map[string]string, len(queries))
	for _, q := range queries {
		pat, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		canon[q] = pat.String()
	}
	patterns := telemetry.NewTopK(64)

	layouts := []struct {
		name  string
		query func(ctx context.Context, q string) ([]int32, error)
		max   float64
	}{
		{"monolithic", mono.QueryContext, 60},
		{"sharded", sharded.QueryContext, 160},
		{"dynamic", dyn.QueryContext, 60},
		{"flat", flat.QueryContext, 60},
	}
	for _, l := range layouts {
		for _, q := range queries {
			run := func() {
				tr := telemetry.GetTrace()
				ctx := telemetry.WithTrace(context.Background(), tr)
				if _, err := l.query(ctx, q); err != nil {
					t.Fatal(err)
				}
				patterns.Record(canon[q])
				telemetry.PutTrace(tr)
			}
			run() // warm pools and seat the pattern in the table
			got := testing.AllocsPerRun(50, run)
			t.Logf("%s %s adaptive: %.1f allocs/op", l.name, q, got)
			if got > l.max {
				t.Errorf("%s %s adaptive: %.1f allocs/op, want <= %.0f", l.name, q, got, l.max)
			}
		}
	}
}

// TestQueryAllocsNoCorpusScaling pins the core guarantee: per-op allocation
// count is independent of corpus size. An accidental per-candidate map or
// per-sequence O(corpus) stamp array fails this immediately.
func TestQueryAllocsNoCorpusScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool reuse; allocation counts are asserted in non-race runs")
	}
	measure := func(n int) float64 {
		ix, err := Build(allocDocs(t, n), Config{KeepDocuments: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(query queryFn, q string) float64 {
			if _, err := query(q); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(50, func() {
				if _, err := query(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		// A verified query adds per-candidate work only: the id → document
		// lookup is built once per index, so with no candidates to check it
		// costs exactly what the plain query costs, whatever the corpus.
		const none = "/n0/absent"
		if plain, verified := allocs(ix.Query, none), allocs(ix.QueryVerified, none); verified != plain {
			t.Errorf("%d docs: verified query with no candidates: %.1f allocs/op, plain %.1f", n, verified, plain)
		}
		return allocs(ix.Query, "//n2")
	}
	small, big := measure(100), measure(800)
	t.Logf("100 docs: %.1f allocs/op; 800 docs: %.1f allocs/op", small, big)
	if big > small*1.5+8 {
		t.Errorf("allocs scale with corpus: %.1f (100 docs) -> %.1f (800 docs)", small, big)
	}
}

// TestFetchDocumentsNoCorpusScaling: fetching three documents looks each up
// in its partition's id table, so the bytes a fetch allocates do not grow
// with the corpus — on one partition or on shards.
func TestFetchDocumentsNoCorpusScaling(t *testing.T) {
	for _, shards := range []int{1, 3} {
		measure := func(n int) float64 {
			ix, err := Build(allocDocs(t, n), Config{KeepDocuments: true, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			ids := []int32{0, int32(n / 2), int32(n - 1)}
			if got, err := ix.FetchDocuments(ids); err != nil || len(got) != 3 {
				t.Fatalf("%d docs: fetched %d of 3, %v", n, len(got), err)
			}
			const runs = 500
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				ix.FetchDocuments(ids)
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		small, big := measure(50), measure(2000)
		t.Logf("%d shards: 50 docs %.0f B/fetch; 2000 docs %.0f B/fetch", shards, small, big)
		if big > 2*small {
			t.Errorf("%d shards: fetch bytes scale with corpus: %.0f (50 docs) -> %.0f (2000 docs)", shards, small, big)
		}
	}
}

// TestScratchPoolHammerLayouts races concurrent queries through all three
// layouts at once — they share the process-wide kernel scratch pool — and
// checks every answer against the sequential one. Run with -race.
func TestScratchPoolHammerLayouts(t *testing.T) {
	docs := allocDocs(t, 150)
	mono, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(docs, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(docs, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(docs, Config{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	queryFns := []queryFn{mono.Query, sharded.Query, dyn.Query, flat.Query}
	queries := []string{"/n0", "/n0/n1", "//n2", "/n0/*"}

	want := make([][]int32, len(queries))
	for i, q := range queries {
		ids, err := mono.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				qi := (g + k) % len(queries)
				fn := queryFns[(g+k)%len(queryFns)]
				got, err := fn(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want[qi]) {
					t.Errorf("goroutine %d: query %q diverged", g, queries[qi])
					return
				}
				for i := range got {
					if got[i] != want[qi][i] {
						t.Errorf("goroutine %d: query %q diverged", g, queries[qi])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
