// Package pager is the buffer pool behind page-level I/O accounting, so
// experiments can report I/O costs the way the paper does ("# disk
// accesses" in Table 7, "# of pages" in Figure 16(c,d)). The flat layout
// charges every 4 KiB page of its image a query reads to an LRU Pool, which
// counts hits and misses — a miss is one disk access.
//
// No bytes are actually moved: the pool only tracks which pages are
// resident, which is exactly what a page-level I/O count needs.
package pager

import "container/list"

// PageSize is the default page size in bytes (4 KiB).
const PageSize = 4096

// PageID identifies one page of an index image.
type PageID int64

// Stats aggregates buffer-pool counters. Misses are disk accesses.
type Stats struct {
	Reads  int64 // total page touches
	Hits   int64 // touches satisfied by the pool
	Misses int64 // touches that had to "go to disk"
}

// DiskAccesses returns the miss count (the paper's metric).
func (s Stats) DiskAccesses() int64 { return s.Misses }

// HitRatio reports hits/reads (0 when nothing was read).
func (s Stats) HitRatio() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// Pool is an LRU buffer pool over page ids. The zero value is not
// usable; call NewPool. Not safe for concurrent use.
type Pool struct {
	capacity int
	lru      *list.List               // front = most recent
	index    map[PageID]*list.Element // page -> lru entry
	stats    Stats
}

// DefaultPoolPages is the default pool capacity: 256 pages = 1 MiB of 4 KiB
// pages, small relative to the indexes built in the experiments so that
// long link scans actually pay I/O, mirroring the paper's 256 MB machine
// against multi-hundred-MB datasets.
const DefaultPoolPages = 256

// NewPool builds a pool holding up to capacity pages; capacity <= 0 uses
// DefaultPoolPages.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultPoolPages
	}
	return &Pool{capacity: capacity, lru: list.New(), index: make(map[PageID]*list.Element)}
}

// Capacity reports the pool's page capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Len reports the number of resident pages.
func (p *Pool) Len() int { return p.lru.Len() }

// Touch records an access to page id: a hit refreshes recency; a miss
// counts one disk access and may evict the least-recently-used page.
func (p *Pool) Touch(id PageID) {
	p.stats.Reads++
	if e, ok := p.index[id]; ok {
		p.stats.Hits++
		p.lru.MoveToFront(e)
		return
	}
	p.stats.Misses++
	if p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		if back != nil {
			delete(p.index, back.Value.(PageID))
			p.lru.Remove(back)
		}
	}
	p.index[id] = p.lru.PushFront(id)
}

// Contains reports residency without affecting recency or counters.
func (p *Pool) Contains(id PageID) bool {
	_, ok := p.index[id]
	return ok
}

// Stats returns the counters so far.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the counters, keeping resident pages (a warm pool).
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Drop empties the pool and zeroes the counters (a cold pool).
func (p *Pool) Drop() {
	p.stats = Stats{}
	p.lru.Init()
	p.index = make(map[PageID]*list.Element)
}
