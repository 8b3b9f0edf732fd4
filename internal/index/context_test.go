package index

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// largeCorpus builds a corpus big enough that a full scan takes measurable
// time, so cancellation has something to interrupt.
func largeCorpus(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		docs[i] = &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 5, 3)}
	}
	return docs
}

func TestBuildContextCancelled(t *testing.T) {
	docs := largeCorpus(t, 64)
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	enc := pathenc.NewEncoder(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = BuildContext(ctx, docs, Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestQueryContextCancelled(t *testing.T) {
	docs := largeCorpus(t, 512)
	ix := buildCS(t, docs, Options{})
	pat := query.MustParse("//A")

	// Sanity: the query answers normally with a live context.
	if _, err := ix.QueryContext(context.Background(), pat); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	ids, err := ix.QueryContext(ctx, pat)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext on cancelled ctx = (%v, %v), want context.Canceled", ids, err)
	}
	if ids != nil {
		t.Fatalf("cancelled query returned results %v", ids)
	}
	// "Promptly": a pre-cancelled query must not pay for a full scan. The
	// bound is generous (entry check fires before any matching) so slow CI
	// machines do not flake.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled query took %v", elapsed)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	docs := largeCorpus(t, 128)
	ix := buildCS(t, docs, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := ix.QueryContext(ctx, query.MustParse("//A"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline query = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryWithContextVerify(t *testing.T) {
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}
	ix := buildCS(t, docs, Options{KeepDocuments: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ix.QueryWithContext(ctx, query.MustParse("/P/D/L[text='boston']"), QueryOptions{Verify: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("verified query on cancelled ctx = %v", err)
	}
}
