// Package engine defines the contract every storage organization of the
// constraint-sequence index implements: one Engine interface answering
// tree-pattern queries (with the verified/explain/limit variants expressed
// as QueryOptions), reporting shape statistics, persisting snapshots, and
// exposing the retained corpus. The paper's query model is engine-agnostic
// — constraint subsequence matching returns the same document ids whether
// the sequences live in one monolithic index, N hash-partitioned shards, or
// a dynamic base+delta pair — so the matching contract lives here, separate
// from any storage organization, and callers dispatch through exactly one
// Engine value instead of branching on engine kind.
//
// Implementations: flat.Index (one partition), shard.Index (hash-partitioned
// fan-out), engine.Dynamic (updatable base+delta over any Builder), and
// qcache.Cache (a memoizing wrapper composable over all of the above).
//
// Not every engine supports every operation: capability gaps (a dynamic
// engine cannot snapshot itself, a sharded engine has no single paged
// layout) are reported uniformly as errors wrapping ErrUnsupported, so
// callers probe capabilities with errors.Is instead of switching on
// concrete types.
package engine

import (
	"context"
	"errors"
	"io"

	"xseq/internal/query"
	"xseq/internal/xmltree"
)

// ErrUnsupported reports an operation the engine's layout cannot perform —
// paged I/O accounting on a sharded index, Save on a dynamic engine, a
// schema outline where no schema was retained. It is a sentinel: detect it
// with errors.Is; the wrapping error names the operation and the layout.
var ErrUnsupported = errors.New("operation not supported by this index layout")

// QueryOptions tweaks one query execution.
//
// Observability rides on the query context, not on this struct: a server
// attaches a pooled telemetry.Trace with telemetry.WithTrace, leaf kernels
// (monolithic, flat) record their QueryStats counters into it, the shard
// fan-out appends per-shard spans and its fan-out/merge timing split, and
// the query cache marks hit or miss. Engines treat an absent trace as
// "telemetry off" and skip all recording, so embedded library use pays
// nothing.
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
	// Stats, when non-nil, accumulates the work the query performed.
	Stats *QueryStats
}

// QueryStats reports the work one query performed — the observable
// counterpart of Algorithm 1's steps.
type QueryStats struct {
	// Instances is the number of concrete instantiations of the pattern
	// (wildcard/descendant expansion).
	Instances int
	// Orders is the number of distinct orders in the instances' plans,
	// summed over instances: the query sequences that permuting
	// identical-sibling groups gives, all searched in one descent per
	// instance.
	Orders int
	// LinkProbes counts binary-search probes into path links.
	LinkProbes int64
	// EntriesScanned counts link entries visited as match candidates.
	EntriesScanned int64
	// CoverChecks counts sibling-cover constraint evaluations.
	CoverChecks int64
	// CoverRejections counts candidates rejected by the constraint — each
	// one a false alarm naive matching would have pursued.
	CoverRejections int64
	// Results is the number of distinct documents returned (before
	// verification).
	Results int
}

// Add accumulates other into s — the merge rule engines that span several
// sub-engines (shard fan-out, base+delta) apply to per-part work profiles.
// Results is NOT summed: it reports distinct documents of the merged
// answer, which the caller sets after merging.
func (s *QueryStats) Add(other QueryStats) {
	s.Instances += other.Instances
	s.Orders += other.Orders
	s.LinkProbes += other.LinkProbes
	s.EntriesScanned += other.EntriesScanned
	s.CoverChecks += other.CoverChecks
	s.CoverRejections += other.CoverRejections
}

// ShardStat is one partition's slice of an engine's shape statistics.
// Monolithic engines report none.
type ShardStat struct {
	// Documents is the partition's corpus size.
	Documents int
	// Nodes is the partition's trie node count.
	Nodes int
	// Links is the partition's distinct path count.
	Links int
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
type Engine interface {
	// QueryWithContext answers a tree-pattern query under ctx with
	// per-query options; cancellation aborts the match loops promptly. The
	// returned slice is caller-owned; see the ownership rule above.
	QueryWithContext(ctx context.Context, pat *query.Pattern, qo QueryOptions) ([]int32, error)

	// NumDocuments reports the corpus size.
	NumDocuments() int
	// NumNodes reports the trie node count (the paper's index-size metric),
	// summed across partitions when partitioned.
	NumNodes() int
	// NumLinks reports the number of distinct paths (horizontal links),
	// summed across partitions when partitioned.
	NumLinks() int
	// EstimatedDiskBytes applies the paper's 4n + 8N sizing formula.
	EstimatedDiskBytes() int64
	// Shards reports per-partition shape statistics, nil for engines with a
	// single partition.
	Shards() []ShardStat

	// Documents returns the retained corpus (nil unless the engine was
	// built keeping documents), in no particular order.
	Documents() []*xmltree.Document

	// Save serializes the engine so Load can reconstruct it; engines whose
	// layout cannot snapshot return an error wrapping ErrUnsupported.
	Save(w io.Writer) error

	// Generation identifies the engine's current snapshot of the corpus:
	// immutable engines report a constant, mutable engines bump it before
	// any change to served results becomes visible. Cache layers key
	// memoized results by it, so a stale generation can never be served as
	// current.
	Generation() uint64
}
