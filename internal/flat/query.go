package flat

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"xseq/internal/engine"
	"xseq/internal/query"
	"xseq/internal/sequence"
	"xseq/internal/telemetry"
	"xseq/internal/xmltree"
)

// This file is the query loop around Algorithm 1 (search.go): wildcard
// instantiation, the plan of every instance, result deduplication,
// cancellation, work counters and the verified mode.

var _ engine.Engine = (*Index)(nil)

// QueryWithContext answers a tree-pattern query, returning matching
// document ids in ascending order in a freshly allocated slice (the engine
// ownership contract; all transient state lives in the pooled scratch).
// Wildcards are instantiated against the path table, each instance is
// planned with the data's priority, and Algorithm 1 walks the links range
// by range, choosing the order of every identical-path sibling group as it
// descends (the false-dismissal remedy). A pattern with more than the
// instantiation limit's instances fails with a *query.TooBroadError
// instead of answering from some of them. Cancellation is polled before
// each instance and, inside the match loops, every cancelCheckStride
// link-entry candidates, so even a runaway wildcard query over a large
// corpus aborts promptly; on cancellation the ctx error is returned and any
// partial result is discarded. When ctx carries a telemetry.Trace, the
// query's work counters are added to it on the way out, whatever the
// outcome. The semantics are designator-level: two values in the same hash
// bucket are indistinguishable (use QueryOptions.Verify for exact value
// semantics).
func (ix *Index) QueryWithContext(ctx context.Context, pat *query.Pattern, qo engine.QueryOptions) ([]int32, error) {
	if ix.prio == nil {
		return nil, fmt.Errorf("flat: strategy %q has no priority; constraint matching requires a prioritized strategy such as g_best", ix.strategy.Name())
	}
	var byID []*xmltree.Document
	if qo.Verify {
		var err error
		if _, byID, err = ix.corpus(); err != nil {
			return nil, err
		}
		if byID == nil {
			return nil, fmt.Errorf("flat: Verify requires an index built with KeepDocuments: %w", engine.ErrUnsupported)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	maxID := ix.meta.MaxDocID
	scr := getScratch(maxID)
	defer putScratch(scr)
	// The counters live in the pooled scratch, so tracing stays off the
	// allocation budget; without a trace nothing is counted.
	var cnt *counters
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		scr.cnt = counters{}
		cnt = &scr.cnt
		defer func() {
			tr.AddKernel(cnt.instances, cnt.orders, cnt.linkProbes, cnt.entriesScanned, cnt.coverChecks, cnt.coverRejections)
		}()
	}
	pg := ix.pager()
	if pg != nil {
		defer pg.release()
	}
	limit := ix.meta.InstantiationLimit
	if limit <= 0 {
		limit = query.DefaultInstantiationLimit
	}
	insts, whole := pat.InstantiateScratch(ix.enc, ix.ci, limit, &scr.inst)
	if !whole {
		return nil, &query.TooBroadError{Limit: limit, Reached: limit + 1}
	}
	res := resultSet{scr: scr, ids: scr.ids[:0], maxID: maxID, limit: qo.MaxResults, cnt: cnt, pager: pg, ctx: ctx}
	if cnt != nil {
		cnt.instances = len(insts)
	}
	for _, inst := range insts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.full() {
			break
		}
		scr.plan.Build(inst.Paths, inst.Parent, ix.prio)
		if cnt != nil {
			cnt.orders += scr.plan.Orders
		}
		ix.search(&scr.plan, qo.Naive, &res)
	}
	if res.err != nil {
		return nil, res.err
	}
	out := res.take()
	if !qo.Verify {
		return out, nil
	}
	// Filter the candidates by the ground-truth matcher, polling ctx between
	// documents (tree-pattern embedding can be slow on pathological records).
	var kept []int32
	for _, id := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d := byID[id]; d != nil && pat.MatchesTree(d.Root) {
			kept = append(kept, id)
		}
	}
	return kept, nil
}

// Query is QueryWithContext with context.Background() and no options.
func (ix *Index) Query(pat *query.Pattern) ([]int32, error) {
	return ix.QueryWithContext(context.Background(), pat, engine.QueryOptions{})
}

// QueryContext is QueryWithContext with no options.
func (ix *Index) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return ix.QueryWithContext(ctx, pat, engine.QueryOptions{})
}

// queryScratch is the reusable per-query working set: the instance plan and
// the search state over it (the sibling-cover ins stack, the member
// choices), the epoch-stamped doc-id dedup array, the terminal-range doc-id
// buffer, the result accumulation buffer and the wildcard-instantiation
// scratch, so a steady-state query on a warm index performs a small fixed
// number of allocations regardless of corpus size or candidate count. Zero
// value ready.
//
// The dedup array is epoch-stamped instead of cleared: stamp[id] == epoch
// means "id already in this query's result". Opening a new query bumps the
// epoch, which invalidates every stamp in O(1); the array is only zeroed
// when the uint32 epoch wraps (once per ~4 billion queries through a given
// scratch).
//
// Ownership rule (the engine/qcache boundary contract): everything inside a
// scratch is borrowed and returns to the pool when the query finishes, so
// no pooled buffer may escape into a query's return value. The result set
// copies its ids into a fresh slice before the scratch is released; see
// resultSet.take.
type queryScratch struct {
	plan   sequence.Plan
	ins    []insEntry
	perm   []int32
	done   []int32
	stamp  []uint32 // doc-id dedup: stamp[id] == epoch means seen
	epoch  uint32
	docBuf []int32
	ids    []int32
	inst   query.Scratch
	cnt    counters
}

// counters is one query's work in the terms of Algorithm 1, the numbers a
// telemetry.Trace carries: instances, the distinct orders in their plans
// (the query sequences permuting identical-sibling groups gives, summed
// over instances), binary-search probes into links, link entries visited
// as candidates, sibling-cover tests, and the candidates those tests
// rejected — each one a false alarm naive matching would have pursued.
type counters struct {
	instances, orders                                        int
	linkProbes, entriesScanned, coverChecks, coverRejections int64
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// getScratch fetches a scratch whose stamp array covers doc ids in
// [0, maxID] and opens a fresh dedup epoch.
func getScratch(maxID int32) *queryScratch {
	s := scratchPool.Get().(*queryScratch)
	if n := int(maxID) + 1; len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: every stale stamp is ambiguous, clear once
		clear(s.stamp)
		s.epoch = 1
	}
	return s
}

// putScratch returns s to the pool. Buffer capacities are kept (that is the
// point); lengths are irrelevant because every user reslices to [:0].
func putScratch(s *queryScratch) { scratchPool.Put(s) }

// cancelCheckStride is how many link-entry candidates the match loops visit
// between context polls — small enough for prompt aborts, large enough that
// the poll is invisible in query profiles.
const cancelCheckStride = 256

// resultSet deduplicates doc ids against the scratch's epoch-stamped array;
// an optional cap stops the search early (MaxResults), and a context aborts
// it (cancelled). err latches the context's error or the corruption error
// of damaged bulk sections; either makes full() true so every search loop
// unwinds. ids borrows the scratch's accumulation buffer — take copies the
// final answer out and hands the grown buffer back, so nothing pooled
// escapes into the return value.
type resultSet struct {
	scr   *queryScratch
	ids   []int32
	maxID int32       // the index's MaxDocID: every id is in [0, maxID]
	limit int         // 0: unlimited
	cnt   *counters   // nil: counting off
	pager *queryPager // nil: page accounting off

	ctx       context.Context
	err       error
	countdown int // candidates until the next ctx poll
}

// cancelled polls the context every cancelCheckStride calls.
func (r *resultSet) cancelled() bool {
	if r.err != nil {
		return true
	}
	r.countdown--
	if r.countdown > 0 {
		return false
	}
	r.countdown = cancelCheckStride
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return true
	}
	return false
}

func (r *resultSet) full() bool {
	return r.err != nil || (r.limit > 0 && len(r.ids) >= r.limit)
}

func (r *resultSet) addAll(ids []int32) {
	stamp, epoch := r.scr.stamp, r.scr.epoch
	for _, id := range ids {
		if r.full() {
			return
		}
		if stamp[id] != epoch {
			stamp[id] = epoch
			r.ids = append(r.ids, id)
		}
	}
}

// take hands the accumulated ids to the caller in ascending order, in a
// fresh caller-owned slice, and returns the accumulation buffer to the
// scratch for reuse. A query with no matches returns nil.
//
// A dense answer is emitted by scanning the stamp array, which already
// marks exactly the ids in r.ids, instead of sorting: see denseEmitRatio.
func (r *resultSet) take() []int32 {
	var out []int32
	switch n := len(r.ids); {
	case n == 0:
	case n*denseEmitRatio > int(r.maxID):
		out = r.takeDense()
	default:
		out = r.takeSorted()
	}
	r.scr.ids = r.ids[:0]
	return out
}

// denseEmitRatio is the switch point of take: an answer of n ids out of the
// id range [0, MaxDocID] is emitted by a stamp scan when n·denseEmitRatio >
// MaxDocID. The scan costs ≈ 0.85 ns per id in the range, the sort grows
// as n log n; over 10,000 ids (BenchmarkTake, 2-core x86-64, -cpu 1) the
// scan wins at 1 id in 16 (9.0 vs 10.6 µs) and loses at 1 in 24 (7.8 vs
// 6.5 µs), and at 1 in 2 it is 33x faster.
const denseEmitRatio = 16

// takeDense emits the stamped ids by one scan of [0, maxID]. Every id is
// written and only a stamped one advances k, so the scan does not branch on
// the stamp; out has one spare slot for the write after the last id.
func (r *resultSet) takeDense() []int32 {
	n := len(r.ids)
	out := make([]int32, n+1)
	stamp, epoch := r.scr.stamp[:r.maxID+1], r.scr.epoch
	k := 0
	for id, s := range stamp {
		out[k] = int32(id)
		if s == epoch {
			k++
		}
	}
	return out[:n:n]
}

// takeSorted sorts the accumulated ids and copies them out.
func (r *resultSet) takeSorted() []int32 {
	slices.Sort(r.ids)
	return slices.Clone(r.ids)
}
