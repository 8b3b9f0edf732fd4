// Test helpers shared by the dynamic-engine suites. The tests live in the
// external package so they can exercise Dynamic over real index.Index
// sub-engines (engine cannot import index itself).
package engine_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// csBuilder infers a schema per build and returns a probability-strategy
// monolithic index, the way the xseq facade's dynamic builder does. It
// keeps documents so verified queries work.
func csBuilder() engine.Builder {
	return func(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
		roots := make([]*xmltree.Node, len(docs))
		for i, d := range docs {
			roots[i] = d.Root
		}
		sch, err := schema.Infer(roots)
		if err != nil {
			return nil, err
		}
		enc := pathenc.NewEncoder(1 << 20)
		return index.BuildContext(ctx, docs, index.Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc), KeepDocuments: true})
	}
}

// blockingBuilder wraps csBuilder: the first call whose documents satisfy
// stop signals entered and waits for release; every other call, before and
// after, goes straight through.
type blockingBuilder struct {
	stop    func(docs []*xmltree.Document) bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingBuilder(stop func([]*xmltree.Document) bool) *blockingBuilder {
	return &blockingBuilder{stop: stop, entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingBuilder) build(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
	hit := false
	if b.stop(docs) {
		b.once.Do(func() { hit = true })
	}
	if hit {
		close(b.entered)
		<-b.release
	}
	return csBuilder()(ctx, docs)
}

// sameAnswers fails t unless d answers every pattern exactly as a fresh
// csBuilder index over docs does.
func sameAnswers(t *testing.T, d *engine.Dynamic, docs []*xmltree.Document, pats []*query.Pattern) {
	t.Helper()
	fresh := mustBuild(t, docs)
	for _, pat := range pats {
		want, err := fresh.QueryWithContext(context.Background(), pat, engine.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Query(pat)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: got %v, fresh build over %d docs %v", pat, got, len(docs), want)
		}
	}
}

func mustBuild(t testing.TB, docs []*xmltree.Document) engine.Engine {
	t.Helper()
	e, err := csBuilder()(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// canonicalPattern clones the pattern with values replaced by their hash
// bucket names, matching sequence.CanonicalizeValues on documents, so
// ground-truth comparisons share the engine's designator-level semantics.
func canonicalPattern(p *query.Pattern, enc *pathenc.Encoder) *query.Pattern {
	var clone func(n *query.PNode) *query.PNode
	clone = func(n *query.PNode) *query.PNode {
		cp := &query.PNode{Axis: n.Axis, Wildcard: n.Wildcard, Name: n.Name, IsValue: n.IsValue, Value: n.Value}
		if n.IsValue {
			cp.Value = enc.SymbolName(enc.ValueSymbol(n.Value))
		}
		for _, c := range n.Children {
			cp.Children = append(cp.Children, clone(c))
		}
		return cp
	}
	return &query.Pattern{Root: clone(p.Root), Text: p.Text}
}

// groundTruth evaluates the pattern at designator level: both documents and
// pattern canonicalized to value-bucket names.
func groundTruth(docs []*xmltree.Document, p *query.Pattern, enc *pathenc.Encoder) []int32 {
	canon := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		canon[i] = &xmltree.Document{ID: d.ID, Root: sequence.CanonicalizeValues(d.Root, enc)}
	}
	return query.Eval(canon, canonicalPattern(p, enc))
}

// testCorpus generates n small random documents (the same shape the index
// resilience suite uses).
func testCorpus(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	labels := []string{"A", "B", "C"}
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		root := xmltree.NewElem("R")
		for k := 0; k <= rng.Intn(3); k++ {
			child := xmltree.NewElem(labels[rng.Intn(len(labels))])
			if rng.Intn(2) == 0 {
				child.Children = append(child.Children, xmltree.NewValue(labels[rng.Intn(len(labels))]))
			}
			root.Children = append(root.Children, child)
		}
		docs[i] = &xmltree.Document{ID: int32(i), Root: root}
	}
	return docs
}

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
