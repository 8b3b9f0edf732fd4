// Resilience tests drive the dynamic engine through injected failures —
// builders that error or panic mid-compaction — and check that every path
// degrades into a typed error while serving state stays intact.
package engine_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/faultio"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

func TestDynamicCompactionFailureKeepsServing(t *testing.T) {
	docs := testCorpus(t, 6)
	// Call 1: initial build. Calls 2-3: the two inserted documents. Call 4:
	// their merge. Call 5: the explicit Compact — the one that fails. Call
	// 6: the retry, which succeeds.
	b := faultio.FlakyBuilderN(csBuilder(), 5, 5, nil)
	d, err := engine.NewDynamic(b, docs[:4], 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[4:] {
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	pat := query.MustParse("//A")
	before, err := d.Query(pat)
	if err != nil {
		t.Fatal(err)
	}

	cerr := d.Compact()
	if cerr == nil {
		t.Fatal("compaction should have failed")
	}
	var ce *engine.CompactionError
	if !errors.As(cerr, &ce) {
		t.Fatalf("%v is not a *CompactionError", cerr)
	}
	if !errors.Is(cerr, faultio.ErrInjected) {
		t.Fatalf("%v does not wrap the injected error", cerr)
	}
	if ce.Docs != 6 {
		t.Fatalf("CompactionError.Docs = %d want 6", ce.Docs)
	}
	if d.LastCompactionError() == nil {
		t.Fatal("LastCompactionError should report the failure")
	}
	if d.PendingDocuments() != 2 {
		t.Fatalf("pending after failed compact = %d want 2", d.PendingDocuments())
	}

	after, err := d.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatalf("failed compaction changed answers: %v -> %v", before, after)
	}

	// The builder has recovered; the retry folds everything in.
	if err := d.Compact(); err != nil {
		t.Fatalf("retry compaction failed: %v", err)
	}
	if d.PendingDocuments() != 0 || d.LastCompactionError() != nil {
		t.Fatalf("retry left pending=%d lastErr=%v", d.PendingDocuments(), d.LastCompactionError())
	}
	final, err := d.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, final) {
		t.Fatalf("successful compaction changed answers: %v -> %v", before, final)
	}
}

func TestDynamicBuilderPanicContained(t *testing.T) {
	inner := csBuilder()
	calls := faultio.Between(3, 3)
	b := func(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
		// Panic on exactly the third call (initial build, inserted
		// document, then the compaction below).
		if calls.Hit() {
			panic("injected builder panic")
		}
		return inner(ctx, docs)
	}
	docs := testCorpus(t, 5)
	d, err := engine.NewDynamic(b, docs[:4], 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(docs[4]); err != nil {
		t.Fatal(err)
	}
	cerr := d.CompactContext(context.Background())
	if cerr == nil {
		t.Fatal("panicking compaction should surface an error")
	}
	var ce *engine.CompactionError
	if !errors.As(cerr, &ce) {
		t.Fatalf("%v is not a *CompactionError", cerr)
	}
	if !strings.Contains(cerr.Error(), "panic") {
		t.Fatalf("error %v does not mention the panic", cerr)
	}
	// Serving state is untouched: the main index still answers, the
	// inserted document is still pending, and the recovered builder (call 4)
	// lets queries and compaction proceed.
	if d.Main() == nil || d.PendingDocuments() != 1 {
		t.Fatalf("serving state disturbed: main=%v pending=%d", d.Main(), d.PendingDocuments())
	}
	if _, err := d.Query(query.MustParse("//A")); err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("compaction after contained panic: %v", err)
	}
}

func TestDynamicAutoCompactRetryAtWatermark(t *testing.T) {
	// The first auto-compaction (pending hits threshold 2) fails; the next
	// attempt happens only once pending has grown by another threshold.
	// Calls 1-2 index the first two documents; call 3 is that compaction.
	b := faultio.FlakyBuilderN(csBuilder(), 3, 3, nil)
	d, err := engine.NewDynamic(b, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	docs := testCorpus(t, 4)
	if err := d.Insert(docs[0]); err != nil {
		t.Fatal(err)
	}
	err = d.Insert(docs[1]) // pending reaches 2: auto-compaction fires and fails
	var ce *engine.CompactionError
	if !errors.As(err, &ce) {
		t.Fatalf("failed auto-compaction returned %v, want *CompactionError", err)
	}
	if d.PendingDocuments() != 2 || d.NumDocuments() != 2 {
		t.Fatalf("after failure: pending=%d docs=%d", d.PendingDocuments(), d.NumDocuments())
	}
	if err := d.Insert(docs[2]); err != nil { // 3 < watermark 4: no attempt
		t.Fatalf("insert below watermark should not retry: %v", err)
	}
	if err := d.Insert(docs[3]); err != nil { // 4 >= watermark: retry succeeds
		t.Fatalf("watermark retry failed: %v", err)
	}
	if d.PendingDocuments() != 0 || d.LastCompactionError() != nil {
		t.Fatalf("after retry: pending=%d lastErr=%v", d.PendingDocuments(), d.LastCompactionError())
	}
}

// TestDynamicConcurrentFlakyCompaction is the regression test for serving
// consistency: with inserts and queries racing while the builder fails a
// window of calls, no query may ever observe a half-compacted state —
// results are always sorted, duplicate-free document ids from the inserted
// universe, and errors are only the injected fault. Run under -race.
func TestDynamicConcurrentFlakyCompaction(t *testing.T) {
	const total = 24
	docs := testCorpus(t, total)
	// Calls 1-5 index documents 0-3 and merge the first two; call 6, the
	// first auto-compaction, fails. Queries never build, so the one
	// inserting goroutine fixes the numbering.
	b := faultio.FlakyBuilderN(csBuilder(), 6, 6, nil)
	d, err := engine.NewDynamic(b, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	pat := query.MustParse("//A")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, doc := range docs {
			if err := d.InsertContext(context.Background(), doc); err != nil {
				if !errors.Is(err, faultio.ErrInjected) {
					t.Errorf("unexpected insert error: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 60; k++ {
			ids, err := d.QueryContext(context.Background(), pat)
			if err != nil {
				if !errors.Is(err, faultio.ErrInjected) {
					t.Errorf("unexpected query error: %v", err)
					return
				}
				continue
			}
			for i := range ids {
				if ids[i] < 0 || ids[i] >= total {
					t.Errorf("query returned id %d outside the corpus", ids[i])
					return
				}
				if i > 0 && ids[i] <= ids[i-1] {
					t.Errorf("query results unsorted or duplicated: %v", ids)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if d.NumDocuments() != total {
		t.Fatalf("docs = %d want %d", d.NumDocuments(), total)
	}
	// The fault window is long past: compaction succeeds and the final
	// answer matches a fresh from-scratch index over the same corpus.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := d.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustBuild(t, docs).QueryWithContext(context.Background(), pat, engine.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("post-storm answers diverge: got %v want %v", got, want)
	}
}

// TestDynamicCompactionCounters checks the success/failure tallies that
// back DynamicIndex.Health: failed attempts and successful compactions
// count independently, and a success clears the sticky error but not the
// history.
func TestDynamicCompactionCounters(t *testing.T) {
	docs := testCorpus(t, 6)
	// Call 1: initial build. Calls 2-3: the inserted documents. Call 4:
	// their merge. Call 5: failed Compact. Call 6: retried Compact,
	// succeeds.
	b := faultio.FlakyBuilderN(csBuilder(), 5, 5, nil)
	d, err := engine.NewDynamic(b, docs[:4], 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if d.Compactions() != 0 || d.FailedCompactions() != 0 {
		t.Fatalf("fresh counters = %d/%d", d.Compactions(), d.FailedCompactions())
	}
	for _, doc := range docs[4:] {
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Query(query.MustParse("//A")); err != nil {
		t.Fatal(err)
	}
	if d.Compact() == nil {
		t.Fatal("compaction should have failed")
	}
	if d.Compactions() != 0 || d.FailedCompactions() != 1 {
		t.Fatalf("post-failure counters = %d/%d", d.Compactions(), d.FailedCompactions())
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Compactions() != 1 || d.FailedCompactions() != 1 {
		t.Fatalf("post-success counters = %d/%d", d.Compactions(), d.FailedCompactions())
	}
	if d.LastCompactionError() != nil {
		t.Fatal("success must clear the sticky error")
	}
	// An empty-buffer Compact is a no-op, not a counted compaction.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Compactions() != 1 {
		t.Fatalf("no-op compact counted: %d", d.Compactions())
	}
}
