package index

import (
	"sort"

	"xseq/internal/match"
	"xseq/internal/pager"
	"xseq/internal/pathenc"
)

// Paged mode: the index's on-disk footprint is simulated by laying the path
// links and the flattened doc-id lists out on fixed-size pages. Every link
// probe and doc-list read then charges the attached buffer pool, so queries
// report the paper's "# disk accesses" / "# of pages" metrics.

// linkEntryBytes is the size of one link entry in the simulated layout: pre,
// max, anc (3×int32) plus flags, padded to 16 bytes. (The columns in memory
// are narrower; the simulation keeps the row layout the paper's page counts
// in EXPERIMENTS.md were taken on.)
const linkEntryBytes = 16

// docIDBytes is the serialized size of one document id.
const docIDBytes = 4

// pagedLayout is the simulated file. Each link's first page is kept in its
// match.Link.Off.
type pagedLayout struct {
	pool  *pager.Pool
	docs  pager.Region
	alloc *pager.Allocator
}

// AttachPager lays the index out on pages and routes subsequent query
// accesses through the pool. Links are allocated in descending length order
// (long links first), one region each; the flattened doc-id array gets its
// own region. Returns the total number of pages of the layout.
func (ix *Index) AttachPager(pool *pager.Pool) (int64, error) {
	alloc := pager.NewAllocator(pager.PageSize)
	pg := &pagedLayout{pool: pool, alloc: alloc}

	paths := make([]pathenc.PathID, 0, len(ix.links))
	for p := range ix.links {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		li, lj := ix.links[paths[i]].Len(), ix.links[paths[j]].Len()
		if li != lj {
			return li > lj
		}
		return paths[i] < paths[j]
	})
	for _, p := range paths {
		l := ix.links[p]
		r, err := alloc.Alloc(int(l.Len()), linkEntryBytes)
		if err != nil {
			return 0, err
		}
		l.Off = uint64(r.Start)
	}
	r, err := alloc.Alloc(len(ix.ends.ids), docIDBytes)
	if err != nil {
		return 0, err
	}
	pg.docs = r
	ix.pg = pg
	return alloc.TotalPages(), nil
}

// DetachPager stops I/O accounting.
func (ix *Index) DetachPager() { ix.pg = nil }

// PagerStats returns the pool counters (zero Stats when detached).
func (ix *Index) PagerStats() pager.Stats {
	if ix.pg == nil {
		return pager.Stats{}
	}
	return ix.pg.pool.Stats()
}

// ResetPagerStats zeroes the pool counters, keeping the pool warm.
func (ix *Index) ResetPagerStats() {
	if ix.pg != nil {
		ix.pg.pool.ResetStats()
	}
}

// DropPagerCache empties the pool (cold-cache measurements).
func (ix *Index) DropPagerCache() {
	if ix.pg != nil {
		ix.pg.pool.Drop()
	}
}

// PagedBytes reports the simulated on-disk size in bytes (0 when detached).
func (ix *Index) PagedBytes() int64 {
	if ix.pg == nil {
		return 0
	}
	return ix.pg.alloc.TotalBytes()
}

// Pager returns the accounting hook, nil when detached (match.Layout).
func (ix *Index) Pager() match.Pager {
	if ix.pg == nil {
		return nil
	}
	return ix.pg
}

// TouchLink charges the page holding slot k of l.
func (pg *pagedLayout) TouchLink(l *match.Link, k int32) {
	pg.pool.Touch(pager.PageID(l.Off) + pager.PageID(k/(pager.PageSize/linkEntryBytes)))
}

// TouchRange charges the pages holding doc-id slots [off, off+n).
func (pg *pagedLayout) TouchRange(off uint64, n int) {
	if n <= 0 {
		return
	}
	first := pg.docs.PageOf(int(off))
	last := pg.docs.PageOf(int(off) + n - 1)
	for p := first; p <= last; p++ {
		pg.pool.Touch(p)
	}
}

// Release is a no-op: the simulated pool is the index's, not the query's.
func (pg *pagedLayout) Release() {}
