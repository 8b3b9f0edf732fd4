package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"xseq/internal/engine"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

func TestDynamicBasics(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDocuments() != 1 || d.NumNodes() == 0 {
		t.Fatalf("initial state: docs=%d nodes=%d", d.NumDocuments(), d.NumNodes())
	}
	// Insert and query before compaction.
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	if d.PendingDocuments() != 1 {
		t.Fatalf("pending = %d", d.PendingDocuments())
	}
	got, err := d.Query(query.MustParse("//L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, []int32{0, 1}) {
		t.Fatalf("query across main+delta = %v", got)
	}
	// Compact and requery.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.PendingDocuments() != 0 {
		t.Fatalf("pending after compact = %d", d.PendingDocuments())
	}
	got2, err := d.Query(query.MustParse("//L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got2, []int32{0, 1}) {
		t.Fatalf("query after compact = %v", got2)
	}
}

func TestDynamicErrors(t *testing.T) {
	if _, err := engine.NewDynamic(nil, nil, 0); err == nil {
		t.Fatal("nil builder should fail")
	}
	d, err := engine.NewDynamic(csBuilder(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Main() != nil {
		t.Fatal("empty dynamic should have no main")
	}
	if err := d.Insert(nil); err == nil {
		t.Fatal("nil insert should fail")
	}
	if err := d.Insert(&xmltree.Document{ID: 5, Root: xmltree.Figure1()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(&xmltree.Document{ID: 5, Root: xmltree.Figure2a()}); err == nil {
		t.Fatal("duplicate id should fail")
	}
	if _, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 1, Root: xmltree.Figure1()}, {ID: 1, Root: xmltree.Figure1()},
	}, 0); err == nil {
		t.Fatal("duplicate initial ids should fail")
	}
}

func TestDynamicAutoCompact(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 7; i++ {
		if err := d.Insert(&xmltree.Document{ID: int32(i), Root: randomTree(rng, 4, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	// Threshold 3: compactions at inserts 3 and 6; one document pending.
	if d.PendingDocuments() != 1 {
		t.Fatalf("pending = %d want 1", d.PendingDocuments())
	}
	if d.Main() == nil || d.NumDocuments() != 7 {
		t.Fatalf("main missing or wrong count %d", d.NumDocuments())
	}
}

// TestDynamicSaveUnsupported: a dynamic engine cannot snapshot its
// transient delta state; the capability gap is the ErrUnsupported sentinel.
func TestDynamicSaveUnsupported(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(nil); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("Save = %v, want ErrUnsupported", err)
	}
	if err := engine.SaveFile(t.TempDir()+"/x", d.Save); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("SaveFile = %v, want ErrUnsupported", err)
	}
}

// TestDynamicGeneration: the generation bumps before every insert and every
// non-empty compaction, and never otherwise — the contract generation-keyed
// caches invalidate by.
func TestDynamicGeneration(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	g0 := d.Generation()
	if _, err := d.Query(query.MustParse("//L")); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != g0 {
		t.Fatal("query must not bump the generation")
	}
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	g1 := d.Generation()
	if g1 <= g0 {
		t.Fatalf("insert did not bump: %d -> %d", g0, g1)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	g2 := d.Generation()
	if g2 <= g1 {
		t.Fatalf("compaction did not bump: %d -> %d", g1, g2)
	}
	// An empty-buffer compaction changes nothing and must not bump.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != g2 {
		t.Fatal("no-op compaction bumped the generation")
	}
}

// TestDynamicQueryOptions: the option variants work across the main+delta
// split — stats merge, limits count across both sides.
func TestDynamicQueryOptions(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	pat := query.MustParse("//L[text='boston']")
	var st engine.QueryStats
	ids, err := d.QueryWithContext(context.Background(), pat, engine.QueryOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(ids, []int32{0, 1}) {
		t.Fatalf("explain query = %v", ids)
	}
	if st.Results != 2 || st.Instances < 2 || st.LinkProbes == 0 {
		t.Fatalf("stats did not merge across main+delta: %+v", st)
	}
	limited, err := d.QueryWithContext(context.Background(), pat, engine.QueryOptions{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Fatalf("limited query = %v, want 1 id", limited)
	}
}

// Property: dynamic answers equal ground truth at every insertion point.
func TestQuickDynamicEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		d, err := engine.NewDynamic(csBuilder(), nil, 5)
		if err != nil {
			return false
		}
		var docs []*xmltree.Document
		enc := pathenc.NewEncoder(1 << 20)
		for i := 0; i < 12; i++ {
			doc := &xmltree.Document{ID: int32(i), Root: randomTree(r, 4, 3)}
			docs = append(docs, doc)
			if err := d.Insert(doc); err != nil {
				return false
			}
			if i%4 != 3 {
				continue
			}
			src := docs[r.Intn(len(docs))].Root
			pat := query.FromTree(randomSubPattern(r, src))
			want := groundTruth(docs, pat, enc)
			got, err := d.Query(pat)
			if err != nil {
				t.Logf("query error: %v", err)
				return false
			}
			if !sameIDs(got, want) {
				t.Logf("mismatch at %d for %s: got %v want %v", i, pat, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicConcurrentInsertQuery(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var seedDocs []*xmltree.Document
	for i := 0; i < 20; i++ {
		seedDocs = append(seedDocs, &xmltree.Document{ID: int32(i), Root: randomTree(rng, 4, 3)})
	}
	for _, doc := range seedDocs[:10] {
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, doc := range seedDocs[10:] {
			if err := d.Insert(doc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		pat := query.MustParse("//A")
		for k := 0; k < 30; k++ {
			if _, err := d.Query(pat); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if d.NumDocuments() != 20 {
		t.Fatalf("docs = %d", d.NumDocuments())
	}
}

func TestDynamicContextCancelled(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range largeCorpus(t, 32) {
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The lazy delta build runs under the query's context.
	if _, err := d.QueryContext(ctx, query.MustParse("//A")); !errors.Is(err, context.Canceled) {
		t.Fatalf("dynamic query on cancelled ctx = %v", err)
	}
	if err := d.CompactContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("compact on cancelled ctx = %v", err)
	}
	// The failed compaction must not have disturbed serving: a live query
	// still answers over everything.
	got, err := d.Query(query.MustParse("//A"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results after cancelled compaction")
	}
}
