package flat

import "xseq/internal/pager"

// AttachPagerLRU attaches pool on the mutex + LRU path even when it covers
// every page, so a test can run the same queries on both paths and compare
// their counts.
func (ix *Index) AttachPagerLRU(pool *pager.Pool) int64 { return ix.attach(pool, false) }
