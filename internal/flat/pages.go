package flat

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"xseq/internal/pager"
)

// Page-level observability. With accounting attached, every kernel read
// charges the 4 KiB page(s) of the file it lands on, so the counters report
// the paper's disk-access metric and the resident-page count for real
// queries over the real layout. The pool's capacity picks one of two paths:
//
//   - A pool that holds every page of the file can never evict, so its LRU
//     carries exactly the information of a first-touch set: a miss is a
//     first touch, Len is the number of distinct pages touched, and hits =
//     reads − misses. Such a pool is replaced by a touched-page bitmap. A
//     touch of a marked page is one atomic load, a first touch one
//     compare-and-swap; each query counts its reads and misses locally and
//     publishes them when it ends. The probe path takes no lock. This is
//     how xseqd serves a flat snapshot.
//   - A smaller pool can evict, so it keeps the pager.Pool LRU, which is not
//     concurrency-safe: every touched range takes the attachment's mutex.

// accounting is one attachment: touched is set on the whole-file path, pool
// on the bounded one.
type accounting struct {
	touched []atomic.Uint64 // one bit per page
	reads   atomic.Int64
	misses  atomic.Int64

	mu   sync.Mutex // guards pool
	pool *pager.Pool
}

// queryPager is one query's hook into an attachment: it is charged for
// every link slot the kernel reads and every ENDS range collectDocs reads.
// On the bitmap path it counts the query's reads and first touches and
// publishes them on release; on the LRU path it charges the pool directly. Pooled, so
// accounting adds no allocation to a query.
type queryPager struct {
	touched       []atomic.Uint64 // acct.touched, copied so a touch reads only qp
	acct          *accounting
	reads, misses int64
	last          uint64 // 1 + the page of the previous touch, 0 before any
}

var queryPagers = sync.Pool{New: func() any { return new(queryPager) }}

// pager hands a query its accounting hook, nil when detached: the detached
// fast path is this one atomic load per query. The query releases the hook
// when it ends.
func (ix *Index) pager() *queryPager {
	a := ix.acct.Load()
	if a == nil {
		return nil
	}
	qp := queryPagers.Get().(*queryPager)
	qp.touched, qp.acct = a.touched, a
	return qp
}

// touchLink charges the page holding link slot k's pre label.
func (qp *queryPager) touchLink(l *Link, k int32) {
	off := l.off + uint64(4*k)
	if p := off / pager.PageSize; qp.touched != nil && p == (off+3)/pager.PageSize {
		qp.touch(p)
		return
	}
	qp.touchRange(off, 4)
}

// touchRange charges the page(s) of the file range [off, off+n), n > 0.
func (qp *queryPager) touchRange(off uint64, n int) {
	first := off / pager.PageSize
	last := (off + uint64(n) - 1) / pager.PageSize
	if qp.touched == nil {
		a := qp.acct
		a.mu.Lock()
		for p := first; p <= last; p++ {
			a.pool.Touch(pager.PageID(p))
		}
		a.mu.Unlock()
		return
	}
	for p := first; p <= last; p++ {
		qp.touch(p)
	}
}

// touch charges page p on the bitmap path: a read, and a miss if this is
// the page's first touch. (atomic.Uint64.Or needs Go 1.23, hence the CAS.)
func (qp *queryPager) touch(p uint64) {
	qp.reads++
	if p+1 == qp.last {
		return // the page the previous touch marked
	}
	qp.last = p + 1
	w, bit := &qp.touched[p/64], uint64(1)<<(p%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			qp.misses++
			return
		}
	}
}

// release publishes the query's counts and returns the hook to the pool.
func (qp *queryPager) release() {
	if a := qp.acct; qp.touched != nil && qp.reads != 0 {
		a.reads.Add(qp.reads)
		a.misses.Add(qp.misses) // after reads: see PagerStats
	}
	*qp = queryPager{}
	queryPagers.Put(qp)
}

// AttachPager starts page-level accounting and returns the snapshot's total
// page count: PagerStats then reports the paper's disk-access metric over
// the real layout and ResidentPages the distinct pages touched. A pool of
// at least TotalPages pages selects the exact, lock-free bitmap path (the
// pool itself is then unused); a smaller pool keeps its LRU, and queries
// take a mutex per touched range. Safe to call on a serving index: a query
// in flight finishes on the attachment it started with. A nil pool
// detaches.
func (ix *Index) AttachPager(pool *pager.Pool) (int64, error) {
	return ix.attach(pool, true), nil
}

// attach installs pool's accounting; bitmap=false keeps the LRU even for a
// whole-file pool (the exactness test's reference).
func (ix *Index) attach(pool *pager.Pool, bitmap bool) int64 {
	total := ix.TotalPages()
	var a *accounting
	switch {
	case pool == nil:
	case bitmap && int64(pool.Capacity()) >= total:
		a = &accounting{touched: make([]atomic.Uint64, (total+63)/64)}
	default:
		a = &accounting{pool: pool}
	}
	ix.acct.Store(a)
	return total
}

// DetachPager stops page accounting.
func (ix *Index) DetachPager() { ix.acct.Store(nil) }

// PagerAttached reports whether page accounting is running.
func (ix *Index) PagerAttached() bool { return ix.acct.Load() != nil }

// PagerStats returns the counters (zero when detached). On the bitmap path
// they cover the queries that have finished.
func (ix *Index) PagerStats() pager.Stats {
	a := ix.acct.Load()
	if a == nil {
		return pager.Stats{}
	}
	if a.pool != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.pool.Stats()
	}
	// Misses before reads: a query publishes its reads first, so every miss
	// seen here comes with its reads. Only a reset racing a query's publish
	// can split them, hence the clamp.
	m := a.misses.Load()
	r := a.reads.Load()
	return pager.Stats{Reads: r, Hits: max(r-m, 0), Misses: m}
}

// ResetPagerStats zeroes the counters, keeping the resident pages (a warm
// pool).
func (ix *Index) ResetPagerStats() {
	a := ix.acct.Load()
	switch {
	case a == nil:
	case a.pool != nil:
		a.mu.Lock()
		a.pool.ResetStats()
		a.mu.Unlock()
	default:
		a.reads.Store(0)
		a.misses.Store(0)
	}
}

// DropPagerCache empties the resident set and zeroes the counters (a cold
// pool, for cold-cache measurements).
func (ix *Index) DropPagerCache() {
	a := ix.acct.Load()
	switch {
	case a == nil:
	case a.pool != nil:
		a.mu.Lock()
		a.pool.Drop()
		a.mu.Unlock()
	default:
		for i := range a.touched {
			a.touched[i].Store(0)
		}
		a.reads.Store(0)
		a.misses.Store(0)
	}
}

// ResidentPages reports how many distinct pages queries have touched since
// the pager attached or the cache was last dropped (0 when detached); on
// the LRU path, how many the pool holds.
func (ix *Index) ResidentPages() int64 {
	a := ix.acct.Load()
	switch {
	case a == nil:
		return 0
	case a.pool != nil:
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(a.pool.Len())
	}
	n := 0
	for i := range a.touched {
		n += bits.OnesCount64(a.touched[i].Load())
	}
	return int64(n)
}

// TotalPages is the snapshot's size in 4 KiB pages.
func (ix *Index) TotalPages() int64 {
	return (int64(len(ix.data)) + pager.PageSize - 1) / pager.PageSize
}
