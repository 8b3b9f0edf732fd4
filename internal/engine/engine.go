// Package engine defines the contract every storage organization of the
// constraint-sequence index implements: one Engine interface with one
// method, QueryWithContext, answering tree-pattern queries. The paper's
// query model is engine-agnostic — constraint subsequence matching returns
// the same document ids whether the sequences live in one monolithic index,
// N hash-partitioned shards, or a dynamic base+delta pair — so the matching
// contract lives here, separate from any storage organization, and callers
// dispatch through exactly one Engine value instead of branching on engine
// kind. Shape statistics, the retained corpus and snapshots are methods of
// the frozen engines themselves (flat.Index, shard.Index); the work a query
// performs is counted in the request's telemetry.Trace.
//
// Implementations: flat.Index (one partition), shard.Index (hash-partitioned
// fan-out), engine.Dynamic (updatable base+delta over any Builder), and
// qcache.Cache (a memoizing wrapper composable over all of the above).
package engine

import (
	"context"
	"errors"

	"xseq/internal/query"
)

// ErrUnsupported reports an operation the index cannot perform as built or
// laid out — a verified query without a retained corpus, paged I/O
// accounting on a sharded index, a schema outline where no schema was
// retained. It is a sentinel: detect it with errors.Is; the wrapping error
// names the operation and the layout.
var ErrUnsupported = errors.New("operation not supported by this index layout")

// ErrDuplicateID reports a document whose id the corpus already holds. It
// is a sentinel: detect it with errors.Is; the wrapping error names the id.
var ErrDuplicateID = errors.New("duplicate document id")

// QueryOptions tweaks one query execution.
//
// Observability rides on the query context, not on this struct: a caller
// attaches a pooled telemetry.Trace with telemetry.WithTrace, the match
// kernel adds its work counters to it (instances, orders, link probes,
// entries scanned, cover checks and rejections), the shard fan-out appends
// per-shard spans and its fan-out/merge timing split, and the query cache
// marks hit or miss. Engines treat an absent trace as "telemetry off" and
// count nothing, so embedded library use pays nothing.
type QueryOptions struct {
	// Naive disables the sibling-cover constraint test, performing the
	// naive subsequence matching of Section 4.2 — may return false alarms.
	Naive bool
	// Verify post-checks every candidate against the stored documents with
	// the ground-truth matcher (requires KeepDocuments). With Verify the
	// result is exact even under value-hash collisions.
	Verify bool
	// MaxResults stops the search once this many distinct documents have
	// been found (0: unlimited). With Verify, candidates are capped before
	// verification, so fewer than MaxResults may survive.
	MaxResults int
}

// Engine is the uniform query contract over a corpus of sequenced XML
// records. Every storage organization — monolithic, sharded, dynamic —
// implements it, and every layer above (result cache, public facade,
// serving) dispatches through it without knowing the layout underneath.
//
// Engines must be safe for concurrent queries. Query results are matching
// document ids in ascending order, identical across layouts over the same
// corpus (the query-equivalence invariant the whole design rests on).
//
// Result ownership: the slice QueryWithContext returns is freshly
// allocated and owned by the caller — it never aliases an engine's pooled
// query scratch or any other internal buffer, and the engine never touches
// it again. This is what lets the match kernels recycle their working
// memory through sync.Pools while a cache layer above (qcache) retains
// results across queries: a cached entry can only ever hold caller-owned
// memory, so a later query reusing the pool cannot corrupt it.
//
// An engine whose answers can change (Dynamic) also has a Generation
// method, which qcache keys its entries by; one without is immutable.
type Engine interface {
	// QueryWithContext answers a tree-pattern query under ctx with
	// per-query options; cancellation aborts the match loops promptly. The
	// returned slice is caller-owned; see the ownership rule above.
	QueryWithContext(ctx context.Context, pat *query.Pattern, qo QueryOptions) ([]int32, error)
}
