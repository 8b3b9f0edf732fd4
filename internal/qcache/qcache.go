// Package qcache memoizes query results above any engine. The motivation is
// the complexity asymmetry of tree-path subsequence matching: answering a
// pattern costs link probes and cover checks proportional to the corpus,
// while serving a memoized answer is one map lookup — and production query
// streams repeat hot patterns heavily.
//
// Cache is an engine.Engine wrapping another engine, so it composes
// identically over monolithic, sharded, and dynamic layouts, and callers
// (the xseq facade, the server) dispatch through it without knowing it is
// there. Results are keyed by (canonical pattern string, snapshot
// generation): query.Pattern.String() is a stable canonical form
// (parse→String→parse is a fixpoint, fuzz-verified), and the generation
// comes from the inner engine's Generation method. A frozen engine has
// none and counts as generation 0, so entries live until evicted; a
// Dynamic bumps its generation before any insert or compaction becomes
// visible, which invalidates every cached entry at the next lookup.
// Generation beats any time-based scheme: it is exact (no staleness
// window, no clock), and the read-generation-then-query ordering below
// makes the cache linearizable — an entry computed concurrently with a
// mutation is stored under the pre-mutation generation and never served
// after it.
package qcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"xseq/internal/engine"
	"xseq/internal/query"
	"xseq/internal/telemetry"
)

// DefaultEntries is the cache capacity when New is given entries <= 0.
const DefaultEntries = 1024

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Capacity is the configured entry bound.
	Capacity int
	// Entries is the current number of cached results.
	Entries int
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that fell through to the inner engine
	// (including uncacheable queries).
	Misses int64
	// Evictions counts entries dropped to make room (capacity) or dropped
	// as stale (superseded generation).
	Evictions int64
}

type entry struct {
	key string
	gen uint64
	ids []int32
}

// Cache is a bounded LRU of query → document-id results over an inner
// engine. Safe for concurrent use. The zero value is not usable; call New.
type Cache struct {
	inner    engine.Engine
	gen      func() uint64 // the inner engine's Generation
	capacity int

	mu      sync.Mutex
	lru     *list.List               // front = most recent; values are *entry
	entries map[string]*list.Element // key → element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// generational is the method a mutable engine (engine.Dynamic) has: its
// current snapshot of the corpus, bumped before any change to served
// results becomes visible.
type generational interface {
	Generation() uint64
}

// New wraps inner with a result cache holding at most entries results
// (entries <= 0: DefaultEntries). An inner engine without a Generation
// method is immutable: its generation is 0 for ever.
func New(inner engine.Engine, entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	gen := func() uint64 { return 0 }
	if g, ok := inner.(generational); ok {
		gen = g.Generation
	}
	return &Cache{
		inner:    inner,
		gen:      gen,
		capacity: entries,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Capacity:  c.capacity,
		Entries:   n,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// cacheable reports whether a query execution's result is safe to memoize:
// plain and verified lookups only. Limited queries (MaxResults) depend on
// the cap, and naive mode exists to demonstrate false alarms — neither
// shares results with the default execution.
func cacheable(qo engine.QueryOptions) bool {
	return qo.MaxResults == 0 && !qo.Naive
}

// cacheKey renders the query's identity: a variant prefix (plain vs
// verified results differ under value-hash collisions) plus the canonical
// pattern string. The NUL separator cannot appear in a pattern rendering.
func cacheKey(pat *query.Pattern, qo engine.QueryOptions) string {
	if qo.Verify {
		return "v\x00" + pat.String()
	}
	return "q\x00" + pat.String()
}

// QueryWithContext serves memoized results when possible, delegating to the
// inner engine otherwise.
//
// The staleness-safety argument: the generation is read BEFORE the inner
// query runs, and mutable engines bump their generation before a mutation's
// results become visible. So if a mutation lands while the inner query is
// in flight, the entry is stored under the already-superseded pre-mutation
// generation and the next lookup discards it; an entry can only ever be
// served while the generation it was stored under is still current.
func (c *Cache) QueryWithContext(ctx context.Context, pat *query.Pattern, qo engine.QueryOptions) ([]int32, error) {
	if pat == nil || !cacheable(qo) {
		c.misses.Add(1)
		return c.inner.QueryWithContext(ctx, pat, qo)
	}
	key := cacheKey(pat, qo)
	gen := c.gen()
	tr := telemetry.TraceFrom(ctx)
	if ids, ok := c.lookup(key, gen); ok {
		c.hits.Add(1)
		if tr != nil {
			tr.SetCache(true)
		}
		return ids, nil
	}
	c.misses.Add(1)
	if tr != nil {
		tr.SetCache(false)
	}
	ids, err := c.inner.QueryWithContext(ctx, pat, qo)
	if err != nil {
		return nil, err
	}
	c.store(key, gen, ids)
	return ids, nil
}

// lookup returns a copy of the entry under key if it exists and its
// generation is current; a stale entry is evicted on sight.
func (c *Cache) lookup(key string, gen uint64) ([]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen != gen {
		c.lru.Remove(el)
		delete(c.entries, key)
		c.evictions.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	// Copy out so callers can't mutate the cached slice (and vice versa).
	return append([]int32(nil), e.ids...), true
}

// store inserts (or replaces) the entry under key, evicting the
// least-recently-used entry when over capacity. The entry keeps a private
// copy: the inner engine's result is caller-owned (per the Engine
// ownership contract it is never pooled memory, so copying here is about
// isolating the cache from caller mutation, not about escaping pools) and
// QueryWithContext returns the original slice to the caller, who is free
// to mutate it without disturbing the cached entry.
func (c *Cache) store(key string, gen uint64, ids []int32) {
	cp := append([]int32(nil), ids...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = &entry{key: key, gen: gen, ids: cp}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, gen: gen, ids: cp})
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

var _ engine.Engine = (*Cache)(nil)
