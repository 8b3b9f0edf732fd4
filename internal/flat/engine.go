package flat

import (
	"context"
	"fmt"

	"xseq/internal/engine"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

var _ engine.Engine = (*Index)(nil)

// QueryWithContext answers a tree-pattern query through the shared kernel;
// see match.Engine.Query for the pipeline and the cancellation contract.
// The semantics are designator-level: two values in the same hash bucket
// are indistinguishable (use QueryOptions.Verify for exact value semantics).
func (ix *Index) QueryWithContext(ctx context.Context, pat *query.Pattern, qo engine.QueryOptions) ([]int32, error) {
	if ix.prio == nil {
		return nil, fmt.Errorf("flat: strategy %q has no priority; constraint matching requires a prioritized strategy such as g_best", ix.strategy.Name())
	}
	return ix.eng.Query(ctx, pat, qo)
}

// Query is QueryWithContext with context.Background() and no options.
func (ix *Index) Query(pat *query.Pattern) ([]int32, error) {
	return ix.QueryWithContext(context.Background(), pat, engine.QueryOptions{})
}

// QueryContext is QueryWithContext with no options.
func (ix *Index) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return ix.QueryWithContext(ctx, pat, engine.QueryOptions{})
}

// NumDocuments reports the corpus size.
func (ix *Index) NumDocuments() int { return ix.meta.NumDocs }

// NumNodes reports the trie node count — the index-size metric of Figures
// 14/15 and Tables 5/6.
func (ix *Index) NumNodes() int { return int(ix.meta.MaxSerial) }

// MaxSerial returns the largest pre-order serial (the root's n⊣).
func (ix *Index) MaxSerial() int32 { return ix.meta.MaxSerial }

// NumLinks reports the number of non-empty horizontal links.
func (ix *Index) NumLinks() int { return ix.numLinks }

// EstimatedDiskBytes applies the paper's sizing formula for the final
// disk-based index: 4n + cN bytes with n the number of indexed records, N
// the trie node count, and c ≈ 8 (Section 6.2). The real figure is
// MappedBytes; this one keeps the cross-engine metric comparable.
func (ix *Index) EstimatedDiskBytes() int64 {
	const c = 8
	return 4*int64(ix.meta.NumDocs) + c*int64(ix.meta.MaxSerial)
}

// Documents returns the retained corpus (nil unless kept, or if an opened
// snapshot's DOCS section is damaged — Verify queries surface that error
// instead).
func (ix *Index) Documents() []*xmltree.Document {
	docs, _ := ix.LoadDocuments()
	return docs
}

// Encoder returns the designator/path table.
func (ix *Index) Encoder() *pathenc.Encoder { return ix.enc }

// ChildIdx exposes the frozen path-table snapshot for query instantiation.
func (ix *Index) ChildIdx() *pathenc.ChildIndex { return ix.ci }

// Strategy returns the sequencing strategy: the one a build was given, or
// the g_best strategy an opened snapshot rebuilt from its schema.
func (ix *Index) Strategy() sequence.Strategy { return ix.strategy }

// Export returns ix.
//
// Deprecated: it remains for callers of the conversion from the former heap
// layout, which exported an index and passed the export to WriteFile; every
// index is already flat.
func (ix *Index) Export() (*Index, error) { return ix, nil }
