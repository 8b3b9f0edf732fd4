package flat

import (
	"context"
	"fmt"
	"io"

	"xseq/internal/engine"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

var _ engine.Engine = (*Index)(nil)

// QueryWithContext answers a tree-pattern query over the mapped snapshot
// through the shared kernel — the same pipeline, results and counters as
// the heap engines; see match.Engine.Query.
func (ix *Index) QueryWithContext(ctx context.Context, pat *query.Pattern, qo engine.QueryOptions) ([]int32, error) {
	return ix.eng.Query(ctx, pat, qo)
}

// NumDocuments reports the corpus size.
func (ix *Index) NumDocuments() int { return ix.meta.NumDocs }

// NumNodes reports the trie node count of the source index.
func (ix *Index) NumNodes() int { return int(ix.meta.MaxSerial) }

// NumLinks reports the number of non-empty horizontal links.
func (ix *Index) NumLinks() int { return ix.numLinks }

// EstimatedDiskBytes applies the paper's 4n + 8N sizing formula. For a flat
// snapshot the real figure exists too — MappedBytes — but this method keeps
// the cross-engine metric comparable.
func (ix *Index) EstimatedDiskBytes() int64 {
	const c = 8
	return 4*int64(ix.meta.NumDocs) + c*int64(ix.meta.MaxSerial)
}

// Shards reports nil: a flat snapshot is a single partition.
func (ix *Index) Shards() []engine.ShardStat { return nil }

// Documents returns the retained corpus, decoded lazily on first call (nil
// when the snapshot was built without KeepDocuments, or if the DOCS
// section is undecodable — Verify queries surface that error instead).
func (ix *Index) Documents() []*xmltree.Document {
	docs, _ := ix.LoadDocuments()
	return docs
}

// Save writes the snapshot: the file is its own serialization, so this is
// a byte copy, not an encode.
func (ix *Index) Save(w io.Writer) error {
	if _, err := w.Write(ix.data); err != nil {
		return fmt.Errorf("flat: save: %w", err)
	}
	return nil
}

// SaveFile is Save to a file, crash-safely (engine.SaveFile).
func (ix *Index) SaveFile(path string) error {
	return engine.SaveFile(path, ix.Save)
}

// Generation identifies the snapshot; flat snapshots are immutable.
func (ix *Index) Generation() uint64 { return 0 }

// Encoder exposes the designator/path table (conversion and tests).
func (ix *Index) Encoder() *pathenc.Encoder { return ix.enc }
