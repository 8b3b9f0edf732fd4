// Package shard scales the constraint-sequence index out across CPU cores:
// a shard.Index hash-partitions the corpus by document id into N independent
// index.Index shards, builds them in parallel on a bounded worker pool, and
// answers queries by fanning out to every shard concurrently and merging the
// per-shard document-id results back into the ascending order a monolithic
// index returns.
//
// The partitioning invariant is the whole design: the paper's matching is
// holistic per document (no cross-document joins), so a document's membership
// in a query result depends only on that document's own sequence and the
// shard that indexed it. Partitioning by document id therefore preserves
// query semantics exactly — the union of per-shard results over a disjoint
// partition equals the monolithic result — while each shard's schema,
// sequencing strategy, and trie stay private to the shard.
//
// Failure semantics mirror the rest of the codebase: a shard build that
// fails (error, panic, cancellation) cancels its siblings and the whole
// build reports the first failure; a query fan-out propagates the first
// shard error unless the error is the fan-out's own early-stop cancellation
// of sibling shards after a Limit query found enough hits.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xseq/internal/engine"
	"xseq/internal/index"
	"xseq/internal/query"
	"xseq/internal/telemetry"
	"xseq/internal/xmltree"
)

// DefaultSeed is the partition hash seed used when Options.Seed is zero. It
// is recorded in snapshots so a reloaded index partitions identically.
const DefaultSeed uint64 = 0x9e3779b97f4a7c15

// Options configures BuildContext.
type Options struct {
	// Shards is the partition count (<= 0: 1). Shards may exceed the corpus
	// size; surplus shards stay empty and cost nothing at query time.
	Shards int
	// Workers bounds how many shards build concurrently
	// (<= 0: runtime.GOMAXPROCS(0)).
	Workers int
	// Seed perturbs the partition hash (0: DefaultSeed).
	Seed uint64
}

// Builder constructs one shard's index over its slice of the corpus. It is
// called concurrently from the build worker pool, once per non-empty shard,
// so it must be safe for concurrent use across distinct document slices.
type Builder func(ctx context.Context, docs []*xmltree.Document) (*index.Index, error)

// Index is a hash-partitioned, parallel-queried index over a corpus. It is
// immutable after BuildContext (or Load) and safe for concurrent use.
type Index struct {
	shards   []*index.Index // len = shard count; nil entries are empty shards
	seed     uint64
	numDocs  int
	maxDocID int32
}

// ShardOf maps a document id to its shard with a splitmix64-style finalizer:
// every bit of the id influences the shard, so dense sequential ids spread
// evenly instead of striping.
func ShardOf(id int32, seed uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(uint32(id)) ^ seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// runPool runs fn(i) for every i in [0, n) on at most workers goroutines.
// The first error cancels the pool's context so sibling workers can abort;
// a worker panic is contained and reported as that worker's error. The
// parent context's error takes precedence in the return value, so callers
// see a clean ctx.Err() when the caller itself cancelled.
func runPool(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-pctx.Done():
				return
			}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("shard: worker %d panic: %v", i, r))
				}
			}()
			if pctx.Err() != nil {
				return
			}
			if err := fn(pctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// BuildContext partitions docs by ShardOf(id) and builds every non-empty
// shard with build on a bounded worker pool. The first shard failure —
// builder error, panic, or cancellation — cancels the remaining builds and
// is returned; no partially built index escapes. Duplicate ids always hash
// to the same shard, so the per-shard duplicate check keeps ids globally
// unique.
func BuildContext(ctx context.Context, docs []*xmltree.Document, build Builder, opt Options) (*Index, error) {
	if build == nil {
		return nil, fmt.Errorf("shard: Builder is required")
	}
	n := opt.Shards
	if n <= 0 {
		n = 1
	}
	seed := opt.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	s := &Index{seed: seed, numDocs: len(docs), shards: make([]*index.Index, n)}
	parts := make([][]*xmltree.Document, n)
	for i, d := range docs {
		if d == nil || d.Root == nil {
			return nil, fmt.Errorf("shard: nil document at position %d", i)
		}
		if d.ID < 0 {
			return nil, fmt.Errorf("shard: negative document id %d", d.ID)
		}
		if d.ID > s.maxDocID {
			s.maxDocID = d.ID
		}
		k := ShardOf(d.ID, seed, n)
		parts[k] = append(parts[k], d)
	}
	err := runPool(ctx, n, opt.Workers, func(pctx context.Context, i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		ix, err := build(pctx, parts[i])
		if err != nil {
			return fmt.Errorf("shard: shard %d of %d: %w", i, n, err)
		}
		if ix == nil {
			return fmt.Errorf("shard: shard %d of %d: builder returned nil index", i, n)
		}
		s.shards[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NumShards reports the partition count (including empty shards).
func (s *Index) NumShards() int { return len(s.shards) }

// Shard returns shard i's index, nil when the shard is empty.
func (s *Index) Shard(i int) *index.Index { return s.shards[i] }

// Seed returns the partition hash seed.
func (s *Index) Seed() uint64 { return s.seed }

// NumDocuments reports the corpus size across all shards.
func (s *Index) NumDocuments() int { return s.numDocs }

// MaxDocID reports the largest document id across all shards.
func (s *Index) MaxDocID() int32 { return s.maxDocID }

// NumNodes reports the total trie node count across shards.
func (s *Index) NumNodes() int {
	total := 0
	for _, sh := range s.shards {
		if sh != nil {
			total += sh.NumNodes()
		}
	}
	return total
}

// NumLinks reports the total path-link count across shards. Paths present
// in several shards count once per shard: each shard owns a private path
// table.
func (s *Index) NumLinks() int {
	total := 0
	for _, sh := range s.shards {
		if sh != nil {
			total += sh.NumLinks()
		}
	}
	return total
}

var _ engine.Engine = (*Index)(nil)

// Documents returns the retained corpus across shards (nil unless the
// shards were built with KeepDocuments), in no particular order.
func (s *Index) Documents() []*xmltree.Document {
	var out []*xmltree.Document
	for _, sh := range s.shards {
		if sh != nil {
			out = append(out, sh.Documents()...)
		}
	}
	return out
}

// Document is flat.Index.Document over the shards: the shard that owns id
// looks it up.
func (s *Index) Document(id int32) (*xmltree.Document, bool) {
	if sh := s.shards[ShardOf(id, s.seed, len(s.shards))]; sh != nil {
		return sh.Document(id)
	}
	for _, sh := range s.shards {
		if sh != nil {
			_, kept := sh.Document(-1)
			return nil, kept
		}
	}
	return nil, false
}

// Query answers a tree-pattern query across all shards; it is QueryContext
// with context.Background().
func (s *Index) Query(pat *query.Pattern) ([]int32, error) {
	return s.QueryContext(context.Background(), pat)
}

// QueryContext fans the pattern out to every shard concurrently and merges
// the results into ascending document-id order — identical to what a
// monolithic index over the same corpus returns.
func (s *Index) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return s.QueryWithContext(ctx, pat, index.QueryOptions{})
}

// shardResult is one shard's slice of a fan-out's outcome.
type shardResult struct {
	ids []int32
	err error
}

// fanoutScratch is the reusable working set of one query fan-out: the live
// shard list, per-shard result slots, and the merge cursor array.
// Pooled across queries so the steady-state fan-out only allocates the
// per-shard goroutines and the merged output slice. Everything here is
// borrowed: the merged result is always a fresh slice, so nothing pooled
// escapes to the caller (or into a result cache above).
type fanoutScratch struct {
	live    []int
	results []shardResult
	lists   [][]int32
}

var fanoutPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// getFanoutScratch fetches a scratch with zeroed slots for n shards.
func getFanoutScratch(n int) *fanoutScratch {
	f := fanoutPool.Get().(*fanoutScratch)
	f.live = f.live[:0]
	f.lists = f.lists[:0]
	if cap(f.results) < n {
		f.results = make([]shardResult, n)
	} else {
		f.results = f.results[:n]
		clear(f.results)
	}
	return f
}

// putFanoutScratch drops the id-slice references (so the pool does not pin
// per-shard results until the next query) and returns f to the pool.
func putFanoutScratch(f *fanoutScratch) {
	for i := range f.results {
		f.results[i].ids = nil
	}
	for i := range f.lists {
		f.lists[i] = nil
	}
	fanoutPool.Put(f)
}

// QueryWithContext is QueryContext with per-query options. Shard results
// are disjoint (each document lives in exactly one shard) and each shard
// returns its ids in ascending order, so the merge is a k-way merge of
// sorted lists with no deduplication — identical output, in the same
// ascending order, as the monolithic index. With MaxResults set, a shard
// reporting results counts them against the global budget and the fan-out
// cancels the remaining shards as soon as the budget is met; the k-way
// merge then stops at the MaxResults smallest ids among the hits found.
func (s *Index) QueryWithContext(ctx context.Context, pat *query.Pattern, qo index.QueryOptions) ([]int32, error) {
	fs := getFanoutScratch(len(s.shards))
	defer putFanoutScratch(fs)
	for i, sh := range s.shards {
		if sh != nil {
			fs.live = append(fs.live, i)
		}
	}
	if len(fs.live) == 0 {
		return nil, nil
	}
	// A context-borne trace gets one span per shard slice (stamped with the
	// request's trace id inside AddSpan) plus the fan-out/merge wall-time
	// split. Kernel counters are recorded by the leaf engines themselves
	// through the same context, so nothing is double counted here.
	tr := telemetry.TraceFrom(ctx)
	if len(fs.live) == 1 {
		i := fs.live[0]
		if tr == nil {
			return s.shards[i].QueryWithContext(ctx, pat, qo)
		}
		spanStart := time.Now()
		ids, err := s.shards[i].QueryWithContext(ctx, pat, qo)
		tr.AddSpan(int32(i), int32(len(ids)), time.Since(spanStart).Nanoseconds())
		return ids, err
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		results = fs.results
		found   atomic.Int64
		wg      sync.WaitGroup
	)
	var fanStart time.Time
	if tr != nil {
		fanStart = time.Now()
	}
	for _, i := range fs.live {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					results[i].err = fmt.Errorf("shard: shard %d query panic: %v", i, r)
					cancel()
				}
			}()
			var spanStart time.Time
			if tr != nil {
				spanStart = time.Now()
			}
			ids, err := s.shards[i].QueryWithContext(fctx, pat, qo)
			if tr != nil {
				tr.AddSpan(int32(i), int32(len(ids)), time.Since(spanStart).Nanoseconds())
			}
			results[i] = shardResult{ids: ids, err: err}
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					cancel() // fail fast: no point finishing sibling shards
				}
				return
			}
			if qo.MaxResults > 0 && found.Add(int64(len(ids))) >= int64(qo.MaxResults) {
				cancel() // enough hits across shards: stop the stragglers
			}
		}(i)
	}
	wg.Wait()
	if tr != nil {
		tr.SetFanoutNS(time.Since(fanStart).Nanoseconds())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	enough := qo.MaxResults > 0 && found.Load() >= int64(qo.MaxResults)
	// A real shard failure outranks the context.Canceled its cancellation
	// induced in sibling shards; report it whichever shard finished first.
	var cancelErr error
	for _, i := range fs.live {
		if err := results[i].err; err != nil {
			if errors.Is(err, context.Canceled) {
				cancelErr = err
				continue
			}
			return nil, err
		}
	}
	if cancelErr != nil && !enough {
		return nil, cancelErr
	}
	total := 0
	for _, i := range fs.live {
		if r := results[i]; r.err == nil && len(r.ids) > 0 {
			fs.lists = append(fs.lists, r.ids)
			total += len(r.ids)
		}
	}
	if qo.MaxResults > 0 && total > qo.MaxResults {
		total = qo.MaxResults
	}
	var out []int32
	if total > 0 {
		var mergeStart time.Time
		if tr != nil {
			mergeStart = time.Now()
		}
		out = engine.MergeAscending(fs.lists, make([]int32, 0, total), qo.MaxResults)
		if tr != nil {
			tr.SetMergeNS(time.Since(mergeStart).Nanoseconds())
		}
	}
	return out, nil
}
