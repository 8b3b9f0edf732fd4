package flat

import (
	"context"
	"fmt"
	"io"

	"xseq/internal/engine"
	"xseq/internal/pager"
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

// AttachPager starts page-level accounting: every kernel read charges the
// 4 KiB page(s) it touches, so pool.Stats reports the paper's disk-access
// metric over the real layout and pool.Len the resident page count. It
// returns the snapshot's total page count. Safe to call on a serving
// index; queries pay one mutex acquisition per touched range while
// attached.
func (ix *Index) AttachPager(pool *pager.Pool) (int64, error) {
	ix.pagerMu.Lock()
	ix.pool = pool
	ix.pagerMu.Unlock()
	ix.pagerOn.Store(pool != nil)
	return ix.TotalPages(), nil
}

// DetachPager stops page accounting.
func (ix *Index) DetachPager() {
	ix.pagerOn.Store(false)
	ix.pagerMu.Lock()
	ix.pool = nil
	ix.pagerMu.Unlock()
}

// PagerStats returns the attached pool's counters (zero when detached).
func (ix *Index) PagerStats() pager.Stats {
	ix.pagerMu.Lock()
	defer ix.pagerMu.Unlock()
	if ix.pool == nil {
		return pager.Stats{}
	}
	return ix.pool.Stats()
}

// ResetPagerStats zeroes the counters, keeping the pool warm.
func (ix *Index) ResetPagerStats() {
	ix.pagerMu.Lock()
	defer ix.pagerMu.Unlock()
	if ix.pool != nil {
		ix.pool.ResetStats()
	}
}

// DropPagerCache empties the pool (cold-cache measurements).
func (ix *Index) DropPagerCache() {
	ix.pagerMu.Lock()
	defer ix.pagerMu.Unlock()
	if ix.pool != nil {
		ix.pool.Drop()
	}
}

// PagerAttached reports whether page accounting is running.
func (ix *Index) PagerAttached() bool { return ix.pagerOn.Load() }

// ResidentPages reports how many distinct pages the attached pool holds
// (0 when detached).
func (ix *Index) ResidentPages() int64 {
	ix.pagerMu.Lock()
	defer ix.pagerMu.Unlock()
	if ix.pool == nil {
		return 0
	}
	return int64(ix.pool.Len())
}

// TotalPages is the snapshot's size in 4 KiB pages.
func (ix *Index) TotalPages() int64 {
	return (int64(len(ix.data)) + pager.PageSize - 1) / pager.PageSize
}
