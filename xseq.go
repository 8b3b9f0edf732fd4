// Package xseq is a sequence-based XML index: it answers tree-pattern
// (XPath-subset) queries over a corpus of XML records holistically by
// constraint subsequence matching, with no join operations, no per-document
// post-processing, and no false alarms — an implementation of Wang & Meng,
// "On the Sequencing of Tree Structures for XML Indexing", ICDE 2005.
//
// The pipeline: each record is transformed into a constraint sequence of
// path-encoded nodes, ordered by the performance-oriented strategy g_best
// (descending occurrence probability p'(C|root), derived from a schema
// inferred from the corpus and optionally re-weighted per element). The
// sequences go into a trie with interval labels and per-path horizontal
// links; queries run Algorithm 1's constraint subsequence matching, whose
// sibling-cover test preserves the equivalence between a structure match
// and a subsequence match (Theorems 2 and 3).
//
// Every storage organization — monolithic, hash-sharded, dynamic base plus
// segments — implements one internal Engine contract, and Index dispatches
// every query through exactly one engine value; an optional bounded result
// cache (Config.QueryCacheEntries) composes over any of them. Operations a
// layout cannot perform report ErrUnsupported.
//
// Quick start:
//
//	doc, _ := xseq.ParseDocumentString(1, "<P><R><L>newyork</L></R></P>")
//	ix, _ := xseq.Build([]*xseq.Document{doc}, xseq.Config{})
//	ids, _ := ix.Query("/P/R/L[text='newyork']")
//
// See the examples/ directory for complete programs.
package xseq

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/index"
	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/qcache"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/shard"
	"xseq/internal/telemetry"
	"xseq/internal/wal"
	"xseq/internal/xmltree"
)

// LimitError reports an input that exceeded a parse resource limit
// (ParseOptions.MaxDepth/MaxNodes/MaxInputBytes); detect it with errors.As.
type LimitError = xmltree.LimitError

// CorruptError reports a snapshot that failed validation on Load or
// LoadFile, or damage a query met in a mapped snapshot — truncated,
// bit-flipped, checksum mismatch, or structurally inconsistent; detect it
// with errors.As.
type CorruptError = index.CorruptError

// CompactionError reports a failed DynamicIndex compaction. The index keeps
// serving its pre-compaction state and retries automatically; detect the
// condition with errors.As.
type CompactionError = engine.CompactionError

// ErrNotApplied marks a DynamicIndex insert rejected before it was logged
// because its document could not be indexed (including the insert's
// context ending first): the document is not in the index and the insert
// is safe to retry. Detect it with errors.Is.
var ErrNotApplied = engine.ErrNotApplied

// WALCorruptError reports a write-ahead log that failed validation: an
// uninterpretable file header, or (under Config.WALStrict) a torn or
// checksum-bad tail that lenient recovery would have truncated. Detect it
// with errors.As.
type WALCorruptError = wal.CorruptError

// ErrWALRotated reports a ReadWALFrames request for entries a checkpoint
// already rotated out of the log; the requester needs a snapshot, not the
// log. Detect it with errors.Is.
var ErrWALRotated = wal.ErrRotated

// ErrUnsupported reports an operation the index cannot perform as built or
// laid out — a verified query without Config.KeepDocuments, paged I/O
// accounting on a sharded index, SchemaOutline where no schema was
// retained. Detect it with errors.Is; the returned error names the
// operation and the layout.
var ErrUnsupported = engine.ErrUnsupported

// ErrDuplicateID reports a DynamicIndex insert whose document id the index
// already holds; the insert changed nothing. Detect it with errors.Is.
var ErrDuplicateID = engine.ErrDuplicateID

// ErrQueryTooBroad reports a pattern whose wildcard and descendant steps
// instantiate to more concrete instances than Config.InstantiationLimit.
// The query fails instead of answering from the instances under the limit;
// the error names the limit and the count reached. Detect it with
// errors.Is.
var ErrQueryTooBroad = query.ErrQueryTooBroad

// PanicError wraps a panic that escaped the library internals through a
// public API call — always a bug in xseq, surfaced as an error (with the
// stack of the panicking goroutine) instead of crashing the caller.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("xseq: internal panic (please report): %v", e.Value)
}

// guard converts an escaped panic into a *PanicError. Every public entry
// point that executes library internals defers it, so a bug in the index
// machinery degrades into an error return rather than a process crash.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// Document is one indexable XML record.
type Document struct {
	id   int32
	root *xmltree.Node
}

// ParseOptions bounds document ingestion. The zero value applies the
// package defaults, which stop hostile inputs (deep-nesting bombs,
// unbounded streams) while being generous for benchmark corpora; -1
// disables the corresponding limit.
type ParseOptions struct {
	// KeepWhitespaceText keeps whitespace-only character data as value
	// leaves (default: dropped).
	KeepWhitespaceText bool
	// MaxDepth bounds element nesting depth (0: 1024, -1: unlimited).
	MaxDepth int
	// MaxNodes bounds the node count one document may produce
	// (0: ~16.7M, -1: unlimited).
	MaxNodes int
	// MaxInputBytes bounds the bytes read from the input
	// (0: 256 MiB, -1: unlimited).
	MaxInputBytes int64
}

// ParseDocument reads one XML document from r under the default resource
// limits.
func ParseDocument(id int32, r io.Reader) (*Document, error) {
	return ParseDocumentOptions(id, r, ParseOptions{})
}

// ParseDocumentOptions is ParseDocument with explicit options. An input
// exceeding a limit yields an error matching *LimitError via errors.As.
func ParseDocumentOptions(id int32, r io.Reader, opts ParseOptions) (doc *Document, err error) {
	defer guard(&err)
	root, err := xmltree.Parse(r, xmltree.ParseOptions{
		KeepWhitespaceText: opts.KeepWhitespaceText,
		MaxDepth:           opts.MaxDepth,
		MaxNodes:           opts.MaxNodes,
		MaxInputBytes:      opts.MaxInputBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Document{id: id, root: root}, nil
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(id int32, src string) (*Document, error) {
	return ParseDocument(id, strings.NewReader(src))
}

// ID returns the document id.
func (d *Document) ID() int32 { return d.id }

// NumNodes reports the node count (elements, attributes, values).
func (d *Document) NumNodes() int { return d.root.Size() }

// WriteXML serializes the document as XML.
func (d *Document) WriteXML(w io.Writer) error { return xmltree.WriteXML(w, d.root) }

// String renders the tree in compact single-line form.
func (d *Document) String() string { return d.root.String() }

// Config tunes index construction.
type Config struct {
	// ValueSpace is the range of the attribute-value hash function
	// (<= 0: 1000, the paper's example). Larger spaces reduce bucket
	// collisions; Verify-mode queries are exact regardless.
	ValueSpace int
	// TextValues selects the paper's second value representation
	// (Section 2.1): values encode as character-designator sequences,
	// enabling exact value matching with no hash collisions and prefix
	// tests ("[text='bos*']") at the cost of longer sequences.
	TextValues bool
	// Weights maps slash-separated element name paths ("site/people/
	// person/age") to the query-frequency/selectivity weight w(C) of
	// Eq 6. Weighted elements sequence earlier, shrinking the search
	// space of queries that use them. A single-partition Build fails on a
	// path its corpus lacks; every other build skips it, since a shard, a
	// dynamic segment or a rebuild may lack a path the corpus has.
	Weights map[string]float64
	// KeepDocuments retains the corpus, enabling QueryVerified.
	KeepDocuments bool
	// InstantiationLimit caps wildcard expansion per query (<= 0: 4096); a
	// query over it fails with ErrQueryTooBroad.
	InstantiationLimit int
	// Shards hash-partitions the corpus by document id into this many
	// independently built and queried sub-indexes (<= 1: one monolithic
	// index). Builds parallelize across shards on BuildWorkers workers;
	// queries fan out to every shard concurrently and merge, returning
	// exactly the ids (same set, same ascending order) the monolithic index
	// returns. Each shard infers its own schema from its partition, so
	// SchemaOutline reports ErrUnsupported for sharded indexes, as does
	// paged I/O accounting. BuildDynamic honours Shards too: compaction
	// rebuilds run through the sharded build path.
	Shards int
	// BuildWorkers bounds how many shards build concurrently
	// (<= 0: runtime.GOMAXPROCS(0)). Ignored when Shards <= 1.
	BuildWorkers int
	// QueryCacheEntries bounds a per-index LRU cache of query results
	// (0: no cache). Hot repeated patterns are answered from the cache;
	// entries are keyed by the canonical pattern string and the engine's
	// snapshot generation, so a DynamicIndex insert or compaction
	// invalidates them exactly. Cache counters surface in Stats.QueryCache.
	QueryCacheEntries int
	// WALPath makes a dynamic index durable: every insert is appended
	// (framed and checksummed) to the write-ahead log at this path and
	// fsynced before the insert is acknowledged, and on startup the log is
	// replayed so a crash — kill -9 included — loses no acknowledged
	// insert. Only BuildDynamic and ResumeDynamic honour it; "" disables
	// the log.
	WALPath string
	// WALStrict makes startup fail with a *WALCorruptError on a torn or
	// checksum-bad log tail instead of truncating the log at the tear (the
	// default, which is what a crash mid-append legitimately leaves behind).
	WALStrict bool
	// WALSyncWindow batches WAL fsyncs (group commit): an insert is
	// acknowledged at the next window boundary, so under concurrent load
	// one fsync covers a whole batch. 0 fsyncs per insert (still sharing
	// fsyncs between concurrent inserters).
	WALSyncWindow time.Duration
	// Layout chooses how a single-partition index is held; every one is
	// the same XSEQFLAT image. "" is the monolithic layout; LayoutFlat
	// ("flat") is the layout LoadFile gives a mapped snapshot: Stats
	// carries the Flat storage figures. Combining it with Shards > 1 is a
	// configuration error.
	Layout string
}

// Index is an immutable constraint-sequence index over a corpus. The
// storage organization underneath — one monolithic index, or a
// hash-partitioned set of shards built with Config.Shards > 1 — is hidden
// behind a single engine value, optionally wrapped in a query result cache;
// the query API is identical either way.
type Index struct {
	queryable
	base frozen // the engine under any result cache
	sch  *schema.Schema
	// flat marks the flat layout (Layout): a single-partition index served
	// in place, whose Stats carry the Flat figures.
	flat bool
}

// frozen is what the facade reads off a frozen engine (flat.Index,
// shard.Index) beyond queries: its shape, its retained corpus and its
// snapshot.
type frozen interface {
	engine.Engine
	NumDocuments() int
	NumNodes() int
	NumLinks() int
	Documents() []*xmltree.Document
	Document(id int32) (*xmltree.Document, bool)
	Save(w io.Writer) error
}

// newIndex wraps a loaded or built engine in the facade type.
func newIndex(base frozen) *Index { return &Index{queryable: queryable{eng: base}, base: base} }

// queryable is the part Index and DynamicIndex share: the one engine value
// each dispatches through and the query entry points over it. Both types
// embed it, so each method below is declared once and belongs to the
// exported method set of both.
type queryable struct {
	eng engine.Engine // single dispatch point (may be a *qcache.Cache)
}

// Build infers a schema from the corpus (probabilities by sampling, as in
// Section 5.2), applies Config.Weights, sequences every document with
// g_best, and builds the index. It is BuildContext with
// context.Background().
func Build(docs []*Document, cfg Config) (*Index, error) {
	return BuildContext(context.Background(), docs, cfg)
}

// BuildContext is Build honouring ctx: cancelling it aborts the build
// between documents (and, for sharded builds, cancels every in-flight shard
// build), returning the context's error.
func BuildContext(ctx context.Context, docs []*Document, cfg Config) (*Index, error) {
	return buildContext(ctx, docs, cfg, false)
}

// buildContext is BuildContext that, with skipUnknownWeights, skips weight
// paths the corpus lacks instead of failing: the rule for every build but
// a caller's single-partition one (see Config.Weights).
func buildContext(ctx context.Context, docs []*Document, cfg Config, skipUnknownWeights bool) (_ *Index, err error) {
	defer guard(&err)
	if len(docs) == 0 {
		return nil, fmt.Errorf("xseq: empty corpus")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("xseq: negative shard count %d", cfg.Shards)
	}
	if cfg.BuildWorkers < 0 {
		return nil, fmt.Errorf("xseq: negative build worker count %d", cfg.BuildWorkers)
	}
	switch cfg.Layout {
	case "", LayoutFlat:
	default:
		return nil, fmt.Errorf("xseq: unknown layout %q (want \"\" or %q)", cfg.Layout, LayoutFlat)
	}
	if cfg.Layout == LayoutFlat && cfg.Shards > 1 {
		return nil, fmt.Errorf("xseq: Layout %q is a single-partition layout; it cannot combine with Shards %d", LayoutFlat, cfg.Shards)
	}
	inner := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		if d == nil || d.root == nil {
			return nil, fmt.Errorf("xseq: nil document at position %d", i)
		}
		inner[i] = &xmltree.Document{ID: d.id, Root: d.root}
	}
	var out *Index
	if cfg.Shards > 1 {
		sh, err := shard.BuildContext(ctx, inner, func(ctx context.Context, part []*xmltree.Document) (*index.Index, error) {
			ix, _, err := buildPartition(ctx, part, cfg, true)
			return ix, err
		}, shard.Options{Shards: cfg.Shards, Workers: cfg.BuildWorkers})
		if err != nil {
			return nil, fmt.Errorf("xseq: build: %w", err)
		}
		out = newIndex(sh)
	} else {
		ix, sch, err := buildPartition(ctx, inner, cfg, skipUnknownWeights)
		if err != nil {
			return nil, fmt.Errorf("xseq: build: %w", err)
		}
		out = newIndex(ix)
		out.sch = sch
	}
	out.flat = cfg.Layout == LayoutFlat
	if cfg.QueryCacheEntries > 0 {
		out.EnableQueryCache(cfg.QueryCacheEntries)
	}
	return out, nil
}

// buildPartition infers a schema over one corpus partition (the whole
// corpus for a monolithic build, one shard's slice otherwise), applies the
// weights, and builds the g_best index. Sharded builds skip weight paths
// the partition's schema never saw — a rare path can hash its every
// document into a few shards, and its absence elsewhere must not fail the
// build.
func buildPartition(ctx context.Context, inner []*xmltree.Document, cfg Config, skipUnknownWeights bool) (*index.Index, *schema.Schema, error) {
	roots := make([]*xmltree.Node, len(inner))
	for i, d := range inner {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		return nil, nil, fmt.Errorf("schema inference: %w", err)
	}
	var enc *pathenc.Encoder
	if cfg.TextValues {
		enc = pathenc.NewTextEncoder()
	} else {
		enc = pathenc.NewEncoder(cfg.ValueSpace)
	}
	if err := sequence.ApplyWeights(sch, cfg.Weights, skipUnknownWeights); err != nil {
		return nil, nil, err
	}
	ix, err := index.BuildContext(ctx, inner, index.Options{
		Encoder:            enc,
		Strategy:           sequence.NewProbability(sch, enc),
		KeepDocuments:      cfg.KeepDocuments,
		InstantiationLimit: cfg.InstantiationLimit,
	})
	if err != nil {
		return nil, nil, err
	}
	return ix, sch, nil
}

// EnableQueryCache wraps the index's engine in a bounded LRU result cache
// of at most entries results (<= 0: a default of 1024), replacing any cache
// already installed (its counters reset). Build installs one automatically
// when Config.QueryCacheEntries > 0; call this after Load/LoadFile, before
// the index starts serving — it is not safe to call concurrently with
// queries.
func (ix *Index) EnableQueryCache(entries int) {
	ix.eng = qcache.New(ix.base, entries)
}

// run parses q and answers it under ctx with the given options.
func (x *queryable) run(ctx context.Context, q string, qo engine.QueryOptions) (ids []int32, err error) {
	defer guard(&err)
	pat, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	return x.eng.QueryWithContext(ctx, pat, qo)
}

// Query answers an XPath-subset query (child and descendant steps,
// wildcards, branching predicates, value tests), returning matching
// document ids in ascending order; a DynamicIndex answers over main +
// segments. Value semantics are designator-level: two values in the same
// hash bucket are indistinguishable; use QueryVerified for exact matching. It is
// QueryContext with context.Background().
func (x *queryable) Query(q string) ([]int32, error) {
	return x.QueryContext(context.Background(), q)
}

// QueryContext is Query honouring ctx: a cancelled or expired context
// aborts the match loops promptly (checked every few hundred candidate
// entries), returning the context's error — the escape hatch for runaway
// wildcard queries over large corpora.
func (x *queryable) QueryContext(ctx context.Context, q string) ([]int32, error) {
	return x.run(ctx, q, engine.QueryOptions{})
}

// QueryVerified is Query with exact value semantics: every candidate is
// checked against its stored document. Requires Config.KeepDocuments.
func (x *queryable) QueryVerified(q string) ([]int32, error) {
	return x.QueryVerifiedContext(context.Background(), q)
}

// QueryVerifiedContext is QueryVerified honouring ctx.
func (x *queryable) QueryVerifiedContext(ctx context.Context, q string) ([]int32, error) {
	return x.run(ctx, q, engine.QueryOptions{Verify: true})
}

// QueryLimit is Query that stops after max distinct documents (max <= 0:
// unlimited), counting across main + segments on a DynamicIndex. Useful for
// existence tests and first-page results. It is QueryLimitContext with
// context.Background().
func (x *queryable) QueryLimit(q string, max int) ([]int32, error) {
	return x.QueryLimitContext(context.Background(), q, max)
}

// QueryLimitContext is QueryLimit honouring ctx: the deadline/cancellation
// semantics of QueryContext combined with the result cap — the entry point
// a serving layer uses for first-page queries under a request deadline. On
// a sharded index the fan-out cancels the remaining shards as soon as max
// hits have accumulated across shards.
func (x *queryable) QueryLimitContext(ctx context.Context, q string, max int) ([]int32, error) {
	return x.run(ctx, q, engine.QueryOptions{MaxResults: max})
}

// Explain reports the work a query performed.
type Explain struct {
	// Instances is the number of concrete instantiations (wildcard and
	// descendant expansion) of the pattern.
	Instances int
	// Orders is the number of distinct orders in the instances' plans:
	// the query sequences the permuted identical-sibling groups give, each
	// searched in one descent that shares common prefixes.
	Orders int
	// LinkProbes counts binary-search probes into path links.
	LinkProbes int64
	// EntriesScanned counts link entries visited as candidates.
	EntriesScanned int64
	// CoverChecks and CoverRejections count sibling-cover constraint
	// evaluations and the false alarms they eliminated.
	CoverChecks, CoverRejections int64
	// Results is the number of distinct documents returned.
	Results int
}

// QueryExplain is Query that also returns the work profile.
func (ix *Index) QueryExplain(q string) ([]int32, Explain, error) {
	return ix.QueryExplainContext(context.Background(), q)
}

// QueryExplainContext is QueryExplain honouring ctx. Explain queries always
// execute (never served from the result cache): the point is to measure the
// work, which the engine counts into a trace of the explain's own.
func (ix *Index) QueryExplainContext(ctx context.Context, q string) (ids []int32, ex Explain, err error) {
	defer guard(&err)
	pat, err := query.Parse(q)
	if err != nil {
		return nil, Explain{}, err
	}
	tr := telemetry.GetTrace()
	defer telemetry.PutTrace(tr)
	if ids, err = ix.base.QueryWithContext(telemetry.WithTrace(ctx, tr), pat, engine.QueryOptions{}); err != nil {
		return nil, Explain{}, err
	}
	return ids, Explain{
		Instances:       int(tr.Instances()),
		Orders:          int(tr.Orders()),
		LinkProbes:      tr.LinkProbes(),
		EntriesScanned:  tr.EntriesScanned(),
		CoverChecks:     tr.CoverChecks(),
		CoverRejections: tr.CoverRejections(),
		Results:         len(ids),
	}, nil
}

// Stats summarizes the index.
type Stats struct {
	// Documents is the corpus size.
	Documents int
	// IndexNodes is the trie node count (the paper's index-size metric),
	// summed across shards when sharded.
	IndexNodes int
	// Links is the number of distinct paths (horizontal links), summed
	// across shards when sharded (each shard owns a private path table).
	Links int
	// EstimatedDiskBytes applies the paper's 4n + 8N sizing formula.
	EstimatedDiskBytes int64
	// Shards is the partition count, 0 for a monolithic index.
	Shards int
	// PerShard reports each shard's shape, nil for a monolithic index.
	// Empty shards (fewer documents than shards) report zeros.
	PerShard []ShardStats
	// QueryCache reports the result cache's counters, nil when no cache is
	// installed.
	QueryCache *QueryCacheStats
	// Flat reports the flat layout's real storage figures (mapped vs
	// resident bytes, page-touch counters), nil for other layouts.
	Flat *FlatStats
}

// ShardStats is one shard's slice of a sharded index's Stats. The JSON
// tags on this and the other stats records are the xseqd /stats wire
// format: the server encodes these types directly.
type ShardStats struct {
	// Documents is the shard's partition size.
	Documents int `json:"documents"`
	// IndexNodes is the shard's trie node count.
	IndexNodes int `json:"index_nodes"`
	// Links is the shard's distinct path count.
	Links int `json:"links"`
}

// QueryCacheStats reports the query result cache's counters.
type QueryCacheStats struct {
	// Capacity is the configured entry bound.
	Capacity int `json:"capacity"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
	// Hits counts queries served from the cache.
	Hits int64 `json:"hits"`
	// Misses counts queries that executed (including uncacheable variants:
	// limited queries always execute).
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped for capacity or staleness.
	Evictions int64 `json:"evictions"`
}

// cacheStats converts a qcache snapshot, nil when eng carries no cache.
func cacheStats(eng engine.Engine) *QueryCacheStats {
	c, ok := eng.(*qcache.Cache)
	if !ok {
		return nil
	}
	s := QueryCacheStats(c.Stats())
	return &s
}

// shapeStats reports a frozen engine's shape, zeros for nil.
func shapeStats(f frozen) Stats {
	if f == nil {
		return Stats{}
	}
	st := Stats{
		Documents:  f.NumDocuments(),
		IndexNodes: f.NumNodes(),
		Links:      f.NumLinks(),
	}
	// The paper's sizing formula for the disk-based index (Section 6.2):
	// 4n + cN bytes, n records and N trie nodes, c ≈ 8. Summed over shards
	// it is the same formula over the totals.
	st.EstimatedDiskBytes = 4*int64(st.Documents) + 8*int64(st.IndexNodes)
	if sh, ok := f.(*shard.Index); ok {
		st.Shards = sh.NumShards()
		st.PerShard = make([]ShardStats, st.Shards)
		for i := range st.PerShard {
			if p := sh.Shard(i); p != nil {
				st.PerShard[i] = ShardStats{Documents: p.NumDocuments(), IndexNodes: p.NumNodes(), Links: p.NumLinks()}
			}
		}
	}
	return st
}

// SchemaOutline renders the inferred schema as an annotated DTD-like
// outline with per-node occurrence probabilities — the statistics g_best
// sequences by. The schema is only retained by a monolithic Build: indexes
// reconstructed by Load (rebuild to inspect; the schema itself is preserved
// and used) and sharded indexes (each shard infers a private schema from
// its partition) return an error wrapping ErrUnsupported.
func (ix *Index) SchemaOutline() (string, error) {
	if ix.sch == nil {
		if _, ok := ix.base.(*shard.Index); ok {
			return "", fmt.Errorf("xseq: schema outline on a sharded index (each shard infers a private schema): %w", ErrUnsupported)
		}
		return "", fmt.Errorf("xseq: schema outline on a loaded snapshot (outline is not persisted; rebuild to inspect): %w", ErrUnsupported)
	}
	return ix.sch.String(), nil
}

// FetchDocuments returns the stored documents for the given ids (in input
// order, skipping unknown ids), each looked up in its partition's id table.
// Requires Config.KeepDocuments.
func (ix *Index) FetchDocuments(ids []int32) ([]*Document, error) {
	// Document ids are non-negative, so -1 asks only whether a corpus is kept.
	if _, kept := ix.base.Document(-1); !kept {
		return nil, fmt.Errorf("xseq: FetchDocuments requires Config.KeepDocuments")
	}
	out := make([]*Document, 0, len(ids))
	for _, id := range ids {
		if d, _ := ix.base.Document(id); d != nil {
			out = append(out, &Document{id: d.ID, root: d.Root})
		}
	}
	return out, nil
}

// StoredDocuments returns every stored document, ids ascending by input
// order. Requires Config.KeepDocuments at build time (snapshots persist the
// corpus only when it was kept). To restart an updatable index on a
// Checkpoint snapshot, pass the snapshot itself to ResumeDynamic rather
// than its documents to BuildDynamic: that keeps its index instead of
// rebuilding it.
func (ix *Index) StoredDocuments() ([]*Document, error) {
	stored := ix.base.Documents()
	if stored == nil {
		return nil, fmt.Errorf("xseq: StoredDocuments requires Config.KeepDocuments")
	}
	out := make([]*Document, len(stored))
	for i, d := range stored {
		out[i] = &Document{id: d.ID, root: d.Root}
	}
	return out, nil
}

// RebuildWithWeights re-sequences the retained corpus under g_best
// weighted (Eq 6) by the given vector and returns a fresh
// index — the adaptive-resequencing rebuild. The new index answers every
// query with byte-identical results (weights change sequencing *order*,
// never answers); what changes is the trie shape: frequently-queried paths
// sequence earlier, sharing longer prefixes and shortening their match
// ranges. The rebuild preserves the index's value encoding, instantiation
// limit, shard count, and layout; unknown weight paths are skipped (an
// online-derived vector may name paths this corpus lacks). Requires
// Config.KeepDocuments at build time. The receiving index is untouched and keeps serving — swap
// the result in (e.g. via a Swapper) once it is ready.
func (ix *Index) RebuildWithWeights(ctx context.Context, weights map[string]float64) (_ *Index, err error) {
	defer guard(&err)
	docs, err := ix.StoredDocuments()
	if err != nil {
		return nil, err
	}
	cfg := Config{Weights: weights, KeepDocuments: true}
	if ix.flat {
		cfg.Layout = LayoutFlat
	}
	// Every partition encodes values and caps instances alike; a shard may
	// be empty, so read the first partition that holds documents.
	parts := partitions(ix.base)
	if len(parts) == 0 {
		return nil, fmt.Errorf("xseq: resequencing rebuild on layout %q: %w", ix.Layout(), ErrUnsupported)
	}
	enc := parts[0].Encoder()
	cfg.ValueSpace, cfg.TextValues, cfg.InstantiationLimit = enc.ValueSpace(), enc.TextValues(), parts[0].InstantiationLimit()
	if sh, ok := ix.base.(*shard.Index); ok {
		cfg.Shards = sh.NumShards()
	}
	out, err := buildContext(ctx, docs, cfg, true)
	if err != nil {
		return nil, fmt.Errorf("xseq: resequencing rebuild: %w", err)
	}
	return out, nil
}

// Save serializes the index (designator tables, links, document lists,
// inferred schema, and — when built with KeepDocuments — the corpus) so it
// can be reloaded with Load or LoadFile without re-parsing or re-sequencing
// anything. A single-partition index writes one XSEQFLAT snapshot
// (checksummed sections that are queried in place); a sharded index writes
// the sharded container: a checksummed manifest (shard count, partition
// seed, per-shard length and CRC) followed by one XSEQFLAT snapshot per
// non-empty shard.
func (ix *Index) Save(w io.Writer) (err error) {
	defer guard(&err)
	return ix.base.Save(w)
}

// SaveFile is Save to a file, crash-safely: the index is written to a
// temporary file in the same directory, fsynced, and atomically renamed
// over path — a crash mid-save never leaves a torn index (a previous file
// at path survives intact).
func (ix *Index) SaveFile(path string) (err error) {
	defer guard(&err)
	return engine.SaveFile(path, ix.base.Save)
}

// Load reads an index written by Save into memory, sniffing the stream's
// magic bytes to accept single-partition and sharded snapshots alike; a
// single-partition snapshot gets the monolithic layout. Every checksum and
// the structural invariants are verified before Load returns. The loaded
// index answers queries identically to the original; it is immutable.
// Corruption — an unknown magic or a retired format, truncation, bit flips,
// checksum or invariant failures, a damaged shard — is reported as a
// *CorruptError, never a panic or a silently wrong index; for sharded
// streams the error names the damaged shard.
func Load(r io.Reader) (_ *Index, err error) {
	defer guard(&err)
	var hdr [8]byte
	n, rerr := io.ReadFull(r, hdr[:])
	if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
		return nil, &CorruptError{Reason: "unreadable stream", Err: rerr}
	}
	replay := io.MultiReader(bytes.NewReader(hdr[:n]), r)
	if shard.IsShardedHeader(hdr[:n]) {
		sh, err := shard.Load(replay)
		if err != nil {
			return nil, err
		}
		return newIndex(sh), nil
	}
	inner, err := index.Load(replay)
	if err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// LoadFile opens an index written by SaveFile. A single-partition snapshot
// is memory-mapped and opened in O(dictionary) time as the flat layout: the
// corpus-sized sections are addressed, not decoded, so opening is
// independent of corpus size and the file may exceed RAM; VerifyIntegrity
// checks the rest, and Close releases the mapping. A sharded snapshot loads
// its shards into memory in parallel on a GOMAXPROCS-bounded worker pool,
// verified in full. For a single-partition snapshot read into memory and
// verified in full, use Load.
func LoadFile(path string) (_ *Index, err error) {
	defer guard(&err)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xseq: load %s: %w", path, err)
	}
	var hdr [8]byte
	n, _ := io.ReadFull(f, hdr[:])
	f.Close()
	if shard.IsShardedHeader(hdr[:n]) {
		sh, err := shard.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return newIndex(sh), nil
	}
	fl, err := flat.OpenFile(path, flat.Options{})
	if err != nil {
		return nil, err
	}
	out := newIndex(fl)
	out.flat = true
	return out, nil
}

// Swapper publishes the live snapshot of an index and atomically swaps in
// replacements — the serving-side counterpart of SaveFile/LoadFile. Readers
// call Current once per query and keep using that snapshot for the whole
// operation; a concurrent swap never disturbs them. Safe for concurrent use.
//
// Result caches are per-Index, so a swap implicitly invalidates: the fresh
// snapshot starts with a fresh (empty) cache, and readers still holding the
// old snapshot keep hitting the old cache, whose entries are correct for
// that snapshot's corpus.
type Swapper struct {
	p atomic.Pointer[Index]
}

// NewSwapper starts a Swapper serving ix (which may be nil: Current returns
// nil until the first successful swap).
func NewSwapper(ix *Index) *Swapper {
	s := &Swapper{}
	if ix != nil {
		s.p.Store(ix)
	}
	return s
}

// Current returns the snapshot being served right now.
func (s *Swapper) Current() *Index { return s.p.Load() }

// Swap publishes ix as the new serving snapshot and returns the previous
// one. A nil ix is a no-op that returns the current snapshot: a swap can
// never un-publish a working index.
func (s *Swapper) Swap(ix *Index) (prev *Index) {
	if ix == nil {
		return s.p.Load()
	}
	return s.p.Swap(ix)
}

// SwapFromFile loads path (a SaveFile snapshot) with LoadFile and, only on
// success, swaps it in. On any failure — missing file, *CorruptError, short
// read — the previous snapshot stays published and keeps serving; the
// error is returned alongside it. The returned index is whatever is current
// after the call: the fresh snapshot on success, the surviving old one on
// error.
//
// A mapped snapshot gets the full integrity pass (VerifyIntegrity) before
// being published: its bulk sections are not checked by the O(dictionary)
// open, and a serving swap is exactly the moment to pay for the scan —
// damage keeps the old snapshot serving instead of surfacing mid-query.
func (s *Swapper) SwapFromFile(path string) (*Index, error) {
	ix, err := LoadFile(path)
	if err != nil {
		return s.p.Load(), err
	}
	if err := ix.VerifyIntegrity(); err != nil {
		ix.Close()
		return s.p.Load(), err
	}
	s.p.Store(ix)
	return ix, nil
}

// DynamicIndex is an updatable index: documents can be inserted after
// construction. Each new document is indexed once into a small frozen
// segment, and segments merge geometrically (Bentley–Saxe), so a query
// spans the main index plus about log₂(threshold) segments; every segment
// folds into the main index on Compact (or automatically once the pending
// documents reach the compaction threshold). No build ever blocks a query.
// Safe for concurrent use.
type DynamicIndex struct {
	queryable // eng is d, possibly wrapped in a result cache
	d         *engine.Dynamic
	w         *wal.WAL // nil without Config.WALPath
	replay    wal.ReplayStats
	// weights is the adaptive-resequencing vector the builder closure reads
	// at build time: once Resequence installs it, every rebuild — the
	// forced one, segment builds, and future compactions — is weighted by
	// it instead of Config.Weights. Every sub-engine carries its own
	// sequencing, so engines built before and after the switch answer
	// alike.
	weights atomic.Pointer[map[string]float64]
}

// BuildDynamic builds an updatable index over an initial corpus (which may
// be empty). threshold is the pending-document count that triggers
// automatic compaction (<= 0: 1024). Config.Shards is honoured: with
// Shards > 1 every rebuild — the initial build, segment builds, and
// compactions — runs through the sharded build path, so compaction
// parallelizes across BuildWorkers workers and queries fan out across
// shards; results are identical to the monolithic dynamic index either way.
// Config.QueryCacheEntries composes a result cache over the whole dynamic
// engine, invalidated exactly on every insert and compaction.
//
// Config.WALPath arms durable ingestion: the log at that path is replayed
// on top of the initial corpus (entries whose document id the corpus
// already holds are skipped) and the initial and replayed documents are
// indexed by one build; then every insert is logged and fsynced before it
// is acknowledged. Close the index when done so the final group commit
// lands. To restart after a Checkpoint, use ResumeDynamic on the loaded
// snapshot: it keeps the snapshot's index instead of building it again.
func BuildDynamic(initial []*Document, cfg Config, threshold int) (*DynamicIndex, error) {
	return buildDynamic(initial, cfg, threshold, nil)
}

// buildDynamic is BuildDynamic with an optional wrapper around the engine
// Builder, through which tests observe every build.
func buildDynamic(initial []*Document, cfg Config, threshold int, wrap func(engine.Builder) engine.Builder) (_ *DynamicIndex, err error) {
	defer guard(&err)
	inner := make([]*xmltree.Document, len(initial))
	held := make(map[int32]bool, len(initial))
	for i, d := range initial {
		if d == nil || d.root == nil {
			return nil, fmt.Errorf("xseq: nil document at position %d", i)
		}
		inner[i] = &xmltree.Document{ID: d.id, Root: d.root}
		held[d.id] = true
	}
	di, builder := newDynamicIndex(cfg, wrap)
	tail, err := di.replayWAL(cfg, func(id int32) bool { return held[id] })
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			di.Close()
		}
	}()
	dyn, err := engine.NewDynamic(builder, append(inner, tail...), threshold)
	if err != nil {
		return nil, err
	}
	return di.serve(dyn, cfg), nil
}

// ResumeDynamic restarts an updatable index on a checkpoint: the loaded
// snapshot's engine becomes the main index as it is, so nothing the
// checkpoint indexed is sequenced or indexed again, and its stored corpus
// becomes the corpus later compactions rebuild from. threshold and cfg
// govern every later build exactly as in BuildDynamic; cfg's value encoding
// (ValueSpace, TextValues) must be the checkpoint's, or queries could
// answer differently before and after a compaction.
//
// With Config.WALPath the log is replayed on top. Entries whose document the
// checkpoint already holds are skipped (the overlap a crash between
// checkpointing and log rotation leaves), and the rest are indexed by at
// most one build: none when the log holds nothing newer; one over the newer
// documents alone, served as one pending segment, while they stay below
// threshold; one over the whole corpus once they reach it.
//
// The checkpoint must carry its corpus, as the Checkpoint of an index built
// with Config.KeepDocuments does. checkpoint is consumed, including on
// error: do not use or close it after the call. The restart recipe after a
// Checkpoint: Load (or LoadFile) the snapshot, pass it here with the same
// WALPath, and replay supplies everything newer.
func ResumeDynamic(checkpoint *Index, cfg Config, threshold int) (*DynamicIndex, error) {
	return resumeDynamic(checkpoint, cfg, threshold, nil)
}

// resumeDynamic is ResumeDynamic with buildDynamic's Builder wrapper.
func resumeDynamic(checkpoint *Index, cfg Config, threshold int, wrap func(engine.Builder) engine.Builder) (_ *DynamicIndex, err error) {
	defer guard(&err)
	if checkpoint == nil {
		return nil, fmt.Errorf("xseq: resume from nil checkpoint")
	}
	defer func() {
		if err != nil {
			checkpoint.Close()
		}
	}()
	if parts := partitions(checkpoint.base); len(parts) > 0 {
		enc := parts[0].Encoder()
		space := pathenc.NewEncoder(cfg.ValueSpace).ValueSpace()
		if enc.TextValues() != cfg.TextValues || (!cfg.TextValues && enc.ValueSpace() != space) {
			return nil, fmt.Errorf("xseq: checkpoint encodes values as (text %v, space %d), config as (text %v, space %d)",
				enc.TextValues(), enc.ValueSpace(), cfg.TextValues, space)
		}
	}
	main, docs, err := adoptSnapshot(checkpoint)
	if err != nil {
		return nil, fmt.Errorf("xseq: resume: %w", err)
	}
	di, builder := newDynamicIndex(cfg, wrap)
	dyn, err := engine.ResumeDynamic(builder, main, docs, threshold)
	if err != nil {
		return nil, err
	}
	tail, err := di.replayWAL(cfg, dyn.Contains)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			di.Close()
		}
	}()
	if err := dyn.Recover(context.Background(), tail); err != nil {
		return nil, fmt.Errorf("xseq: index %d replayed documents: %w", len(tail), err)
	}
	return di.serve(dyn, cfg), nil
}

// adoptSnapshot takes a loaded snapshot's engine and corpus for a dynamic
// index's main engine: the one seeding step of a restart (ResumeDynamic)
// and of a follower re-seed (ReseedFromSnapshot). A heap-held image keeps
// only its bulk sections once its corpus is decoded, so the corpus is not
// held twice.
func adoptSnapshot(ix *Index) (engine.Engine, []*xmltree.Document, error) {
	eng := ix.base
	for _, p := range partitions(eng) {
		if err := p.ReleaseEncodedHead(); err != nil {
			return nil, nil, err
		}
	}
	docs := eng.Documents()
	if docs == nil && eng.NumDocuments() > 0 {
		return nil, nil, fmt.Errorf("snapshot was built without Config.KeepDocuments")
	}
	return eng, docs, nil
}

// partitions lists a frozen engine's XSEQFLAT images: the one of a
// single-partition index, or every non-empty shard's.
func partitions(eng frozen) []*flat.Index {
	switch e := eng.(type) {
	case *flat.Index:
		return []*flat.Index{e}
	case *shard.Index:
		var parts []*flat.Index
		for i := 0; i < e.NumShards(); i++ {
			if sh := e.Shard(i); sh != nil {
				parts = append(parts, sh)
			}
		}
		return parts
	}
	return nil
}

// newDynamicIndex returns the facade of a dynamic index built by cfg and
// the engine Builder its dynamic engine uses, wrapped by wrap when set.
func newDynamicIndex(cfg Config, wrap func(engine.Builder) engine.Builder) (*DynamicIndex, engine.Builder) {
	subCfg := cfg
	// The cache layers over the dynamic engine as a whole, not inside the
	// sub-engines it rebuilds.
	subCfg.QueryCacheEntries = 0
	di := &DynamicIndex{}
	var builder engine.Builder = func(ctx context.Context, inner []*xmltree.Document) (engine.Engine, error) {
		wrapped := make([]*Document, len(inner))
		for i, d := range inner {
			wrapped[i] = &Document{id: d.ID, root: d.Root}
		}
		bcfg := subCfg
		if w := di.weights.Load(); w != nil {
			bcfg.Weights = *w
		}
		// A segment, a merge or a compaction may lack a weighted path.
		ix, err := buildContext(ctx, wrapped, bcfg, true)
		if err != nil {
			return nil, err
		}
		return ix.base, nil
	}
	if wrap != nil {
		builder = wrap(builder)
	}
	return di, builder
}

// replayWAL opens the log at cfg.WALPath, if set, and returns the documents
// it holds that held does not claim, in log order; an entry repeating an
// earlier one's id is skipped too. The log stays open on di.
func (di *DynamicIndex) replayWAL(cfg Config, held func(int32) bool) ([]*xmltree.Document, error) {
	if cfg.WALPath == "" {
		return nil, nil
	}
	var tail []*xmltree.Document
	replayed := map[int32]bool{}
	w, st, err := wal.Open(cfg.WALPath, wal.Options{
		SyncWindow: cfg.WALSyncWindow,
		Strict:     cfg.WALStrict,
		Apply: func(seq uint64, payload []byte) error {
			doc, err := wal.DecodeDocument(payload)
			if err != nil {
				return err
			}
			if held(doc.ID) || replayed[doc.ID] {
				// Already covered — the entry predates a checkpoint whose
				// rotation didn't land.
				return nil
			}
			replayed[doc.ID] = true
			tail = append(tail, doc)
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("xseq: wal %s: %w", cfg.WALPath, err)
	}
	di.w, di.replay = w, st
	return tail, nil
}

// serve finishes a dynamic index around its engine: the log, if open,
// continues at the replayed sequence number, and cfg's result cache wraps
// the engine.
func (di *DynamicIndex) serve(dyn *engine.Dynamic, cfg Config) *DynamicIndex {
	if di.w != nil {
		dyn.AttachWAL(di.w, wal.EncodeDocument, di.replay.LastSeq)
	}
	di.d, di.eng = dyn, dyn
	if cfg.QueryCacheEntries > 0 {
		di.eng = qcache.New(dyn, cfg.QueryCacheEntries)
	}
	return di
}

// Insert adds one document; ids must be unique across the index's life. It
// is InsertContext with context.Background().
func (d *DynamicIndex) Insert(doc *Document) error {
	return d.InsertContext(context.Background(), doc)
}

// InsertContext adds one document under ctx, which governs indexing the
// document: a failure there, ctx ending included, rejects the insert
// before it is logged with an error wrapping ErrNotApplied. The segment
// merges and automatic compaction the insert triggers run to completion
// whatever happens to ctx. If that compaction fails — builder error or
// panic — the document is still inserted and queryable, the old main index
// keeps serving, and the failure is returned as a *CompactionError;
// compaction retries at the next threshold crossing.
func (d *DynamicIndex) InsertContext(ctx context.Context, doc *Document) (err error) {
	defer guard(&err)
	if doc == nil || doc.root == nil {
		return fmt.Errorf("xseq: nil document")
	}
	return d.d.InsertContext(ctx, &xmltree.Document{ID: doc.id, Root: doc.root})
}

// Compact folds pending documents into the main index. On failure the
// index keeps serving its pre-compaction state and the error is a
// *CompactionError; see CompactContext.
func (d *DynamicIndex) Compact() error { return d.CompactContext(context.Background()) }

// CompactContext is Compact honouring ctx. Whatever goes wrong — builder
// error, panic, cancellation — the serving state is untouched: queries
// before and after a failed compaction answer identically.
func (d *DynamicIndex) CompactContext(ctx context.Context) (err error) {
	defer guard(&err)
	return d.d.CompactContext(ctx)
}

// Resequence installs an adaptive weight vector (slash-separated element
// name paths -> w(C), as in Config.Weights; unknown paths are skipped) and
// forces a full weighted rebuild of the main engine, re-sequencing every
// document so frequently-queried paths sequence earlier — the dynamic
// layout's half of online adaptive resequencing. The vector sticks: later
// segment builds and compactions sequence under it too, until the next
// Resequence. Failure containment is compaction's exactly: a failed
// rebuild is a counted *CompactionError (degraded Health), the serving
// state is untouched, and queries keep answering from the old sequencing.
// A nil or empty vector reverts to Config.Weights at the next rebuild.
func (d *DynamicIndex) Resequence(ctx context.Context, weights map[string]float64) (err error) {
	defer guard(&err)
	if len(weights) == 0 {
		d.weights.Store(nil)
	} else {
		d.weights.Store(&weights)
	}
	return d.d.RebuildContext(ctx)
}

// LastCompactionError reports the most recent compaction failure, nil
// after a successful compaction (or if none ever failed).
func (d *DynamicIndex) LastCompactionError() error { return d.d.LastCompactionError() }

// NumDocuments reports the total corpus size including pending documents.
func (d *DynamicIndex) NumDocuments() int { return d.d.NumDocuments() }

// PendingDocuments reports how many documents await compaction.
func (d *DynamicIndex) PendingDocuments() int { return d.d.PendingDocuments() }

// CacheStats reports the query result cache's counters, nil when built
// without Config.QueryCacheEntries.
func (d *DynamicIndex) CacheStats() *QueryCacheStats { return cacheStats(d.eng) }

// Stats returns index statistics. The corpus includes pending documents;
// node, link and shard figures cover the compacted main index (zeros before
// the first build).
func (d *DynamicIndex) Stats() Stats {
	main, _ := d.d.Main().(frozen)
	st := shapeStats(main)
	st.Documents = d.d.NumDocuments()
	st.QueryCache = cacheStats(d.eng)
	return st
}

// AppliedSeq reports the WAL sequence number of the last applied insert —
// the durable high-water mark on a primary, the replication position on a
// follower. 0 before any insert (and, without a WAL, before any insert
// since construction).
func (d *DynamicIndex) AppliedSeq() uint64 { return d.d.AppliedSeq() }

// WALStats reports the write-ahead log's condition, nil when the index was
// built without Config.WALPath.
type WALStats struct {
	// Path is the log file.
	Path string `json:"path"`
	// SizeBytes is the log's current size.
	SizeBytes int64 `json:"size_bytes"`
	// Entries is the number of entries currently in the log.
	Entries int `json:"entries"`
	// BaseSeq is the checkpoint base: entries at or below it were rotated
	// into a snapshot. LastSeq is the append head; SyncedSeq the durable
	// (fsynced) watermark.
	BaseSeq   uint64 `json:"base_seq"`
	LastSeq   uint64 `json:"last_seq"`
	SyncedSeq uint64 `json:"synced_seq"`
	// Appends, Syncs, Rotations count log operations since startup.
	Appends   int64 `json:"appends"`
	Syncs     int64 `json:"syncs"`
	Rotations int64 `json:"rotations"`
	// ReplayedEntries and ReplayTruncatedBytes describe startup recovery:
	// how many entries the log restored, and how long a torn tail it
	// truncated (0 for a clean shutdown).
	ReplayedEntries      int   `json:"replayed_entries"`
	ReplayTruncatedBytes int64 `json:"replay_truncated_bytes"`
	// LastError is the sticky fsync failure, "" while the log is healthy.
	// A log with a LastError acknowledges nothing: inserts fail until the
	// process (and its disk) recovers.
	LastError string `json:"last_error,omitempty"`
}

// WALStats returns the log's condition, nil without a WAL.
func (d *DynamicIndex) WALStats() *WALStats {
	if d.w == nil {
		return nil
	}
	st := d.w.Stats()
	return &WALStats{
		Path:                 st.Path,
		SizeBytes:            st.SizeBytes,
		Entries:              st.Entries,
		BaseSeq:              st.BaseSeq,
		LastSeq:              st.LastSeq,
		SyncedSeq:            st.SyncedSeq,
		Appends:              st.Appends,
		Syncs:                st.Syncs,
		Rotations:            st.Rotations,
		ReplayedEntries:      d.replay.Entries,
		ReplayTruncatedBytes: d.replay.TruncatedBytes,
		LastError:            st.LastError,
	}
}

// ReadWALFrames returns raw framed log entries with sequence numbers >=
// from out of the durable prefix of the WAL — the payload a primary
// streams to followers. It returns up to maxBytes of frames (always at
// least one entry when any qualifies), the entry count, and the last
// included sequence number. Entries a checkpoint rotated away report
// ErrWALRotated; an index without a WAL reports ErrUnsupported.
func (d *DynamicIndex) ReadWALFrames(from uint64, maxBytes int) (frames []byte, count int, last uint64, err error) {
	defer guard(&err)
	if d.w == nil {
		return nil, 0, 0, fmt.Errorf("xseq: wal frames on an index without a WAL: %w", ErrUnsupported)
	}
	return d.w.ReadFrames(from, maxBytes)
}

// WaitWALSynced blocks until the WAL's durable watermark reaches seq, ctx
// ends, or the index closes — the long-poll primitive behind a replication
// endpoint. An index without a WAL reports ErrUnsupported.
func (d *DynamicIndex) WaitWALSynced(ctx context.Context, seq uint64) (err error) {
	defer guard(&err)
	if d.w == nil {
		return fmt.Errorf("xseq: wal wait on an index without a WAL: %w", ErrUnsupported)
	}
	return d.w.WaitSynced(ctx, seq)
}

// ApplyReplicated applies one replicated WAL entry — a (seq, payload)
// frame read from a primary's stream — to a follower index. Entries must
// arrive in sequence order (seq == AppliedSeq()+1); the payload is decoded
// exactly as local replay would, and an entry whose document the corpus
// already holds (snapshot-seed overlap) advances the position without
// re-applying. If this index has its own WAL, an applied entry is logged
// under the primary's sequence number before it is applied, so the
// follower's durability matches its acknowledgement.
func (d *DynamicIndex) ApplyReplicated(ctx context.Context, seq uint64, payload []byte) (err error) {
	defer guard(&err)
	if want := d.d.AppliedSeq() + 1; seq != want {
		return fmt.Errorf("xseq: replicated entry seq %d, want %d (apply in order)", seq, want)
	}
	doc, err := wal.DecodeDocument(payload)
	if err != nil {
		return err
	}
	if d.d.Contains(doc.ID) {
		// The entry predates the snapshot seed: a checkpoint can cover more
		// than its advertised sequence number (the primary crashed between
		// snapshot save and log rotation), so the stream's first entries may
		// duplicate seeded documents. Advance the position without applying —
		// exactly what local replay does with such entries.
		return d.d.SkipReplicated(seq)
	}
	return d.d.InsertContext(ctx, doc)
}

// ReseedFromSnapshot replaces this index's entire state with a loaded
// checkpoint snapshot: the snapshot's engine becomes the new main engine,
// its stored corpus the new corpus, and seq — the WAL sequence number the
// snapshot covers, advertised by the primary alongside it — the new
// replication position. This is the follower's escape from ErrWALRotated:
// when the primary's log no longer reaches back to the follower's
// position, only a snapshot can.
//
// The snapshot must carry its corpus (built with Config.KeepDocuments,
// which checkpointing primaries arm); without it later compactions would
// be impossible. On any error the index keeps serving its old state
// untouched. A local WAL is reset to an empty log based at seq — its
// entries are all at or below seq and therefore redundant with the
// snapshot; callers that seed restarts from a checkpoint file should
// persist the downloaded snapshot under their own checkpoint path before
// calling. ix is consumed: do not use it after a successful call.
func (d *DynamicIndex) ReseedFromSnapshot(ix *Index, seq uint64) (err error) {
	defer guard(&err)
	if ix == nil {
		return fmt.Errorf("xseq: reseed from nil snapshot")
	}
	eng, docs, err := adoptSnapshot(ix)
	if err != nil {
		return fmt.Errorf("xseq: reseed: %w", err)
	}
	if d.w != nil {
		// The log goes first: if the engine swap below then fails, the
		// served state is behind the log base, the next poll gets another
		// 410, and the re-seed simply runs again — whereas swapping the
		// engine first could acknowledge inserts a crashed restart replays
		// from a log that no longer matches.
		if err := d.w.Reset(seq); err != nil {
			return err
		}
	}
	return d.d.ResetTo(eng, docs, seq)
}

// Checkpoint is CheckpointContext with context.Background().
func (d *DynamicIndex) Checkpoint(path string) error {
	return d.CheckpointContext(context.Background(), path)
}

// CheckpointContext compacts the index, snapshots the compacted state to
// path (SaveFile semantics: temp file, fsync, atomic rename), and rotates
// the WAL so entries the snapshot covers are dropped from the log. Inserts
// arriving during the snapshot stay in the log. Build with
// Config.KeepDocuments if the snapshot is meant to seed a restart (see
// ResumeDynamic). A crash between the snapshot and the rotation leaves an
// overlap that replay skips; a crash before the snapshot leaves the full
// log. Without a WAL, CheckpointContext is compact + save.
func (d *DynamicIndex) CheckpointContext(ctx context.Context, path string) error {
	_, err := d.CheckpointAt(ctx, path)
	return err
}

// CheckpointAt is CheckpointContext returning the WAL sequence number the
// written snapshot covers — what a serving layer advertises alongside the
// snapshot (X-Snapshot-Seq) so a re-seeding follower knows where to resume
// tailing.
func (d *DynamicIndex) CheckpointAt(ctx context.Context, path string) (seq uint64, err error) {
	defer guard(&err)
	seq, main, err := d.d.CompactForCheckpoint(ctx)
	if err != nil {
		return 0, err
	}
	f, _ := main.(frozen) // the facade's Builder makes only frozen engines
	if f == nil {
		return 0, fmt.Errorf("xseq: checkpoint of an empty index")
	}
	if err := engine.SaveFile(path, f.Save); err != nil {
		return 0, err
	}
	if d.w != nil {
		if err := d.w.Rotate(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Close releases the write-ahead log (flushing its final group commit);
// the index itself keeps answering queries, but further inserts fail. A
// WAL-less index closes as a no-op. Close is idempotent.
func (d *DynamicIndex) Close() error {
	if d.w == nil {
		return nil
	}
	return d.w.Close()
}

// Health summarizes a DynamicIndex's serving condition for health
// endpoints. Degraded means the most recent compaction failed; the index is
// still fully serviceable (queries answer over the pre-compaction state
// plus the segments) and compaction retries automatically, so Degraded is a
// "needs attention", not an outage.
type Health struct {
	// Documents is the total corpus size including pending documents.
	Documents int
	// Pending is the number of documents awaiting compaction.
	Pending int
	// Compactions counts successful compactions over the index's life.
	Compactions int
	// FailedCompactions counts compaction attempts that failed.
	FailedCompactions int
	// LastCompactionError is the most recent compaction failure rendered
	// as text, "" when the last compaction succeeded (or none ever ran).
	LastCompactionError string
	// Degraded reports LastCompactionError != "".
	Degraded bool
}

// Health returns the serving-condition summary.
func (d *DynamicIndex) Health() Health {
	h := Health{
		Documents:         d.d.NumDocuments(),
		Pending:           d.d.PendingDocuments(),
		Compactions:       d.d.Compactions(),
		FailedCompactions: d.d.FailedCompactions(),
	}
	if err := d.d.LastCompactionError(); err != nil {
		h.LastCompactionError = err.Error()
		h.Degraded = true
	}
	return h
}

// IOStats reports page-level I/O counters (all zero until EnablePagedIO):
// the pages of the XSEQFLAT image a query touches.
type IOStats struct {
	Reads        int64
	Hits         int64
	DiskAccesses int64
}

// EnablePagedIO starts counting disk accesses behind a buffer pool of
// poolPages 4 KiB pages (<= 0: 256) and returns the image's page count.
// Queries charge the real pages of the XSEQFLAT image: a pool at least as
// large as the image can never evict, so its counts are kept exactly by a
// lock-free touched-page bitmap (what xseqd attaches to the flat layout); a
// smaller pool is an LRU that queries share under a mutex. Paged I/O is a
// single-index instrument; layouts without one page image (sharded
// indexes) return an error wrapping ErrUnsupported.
func (ix *Index) EnablePagedIO(poolPages int) (int64, error) {
	f, ok := ix.base.(*flat.Index)
	if !ok {
		return 0, fmt.Errorf("xseq: paged I/O accounting on a sharded index: %w", ErrUnsupported)
	}
	return f.AttachPager(pager.NewPool(poolPages))
}

// DisablePagedIO stops I/O accounting.
func (ix *Index) DisablePagedIO() {
	if f, ok := ix.base.(*flat.Index); ok {
		f.DetachPager()
	}
}

// IO returns the I/O counters accumulated since EnablePagedIO (or the last
// ResetIO).
func (ix *Index) IO() IOStats {
	f, ok := ix.base.(*flat.Index)
	if !ok {
		return IOStats{}
	}
	s := f.PagerStats()
	return IOStats{Reads: s.Reads, Hits: s.Hits, DiskAccesses: s.Misses}
}

// ResetIO zeroes the I/O counters, keeping the buffer pool warm.
func (ix *Index) ResetIO() {
	if f, ok := ix.base.(*flat.Index); ok {
		f.ResetPagerStats()
	}
}

// DropIOCache empties the buffer pool (cold-cache measurements).
func (ix *Index) DropIOCache() {
	if f, ok := ix.base.(*flat.Index); ok {
		f.DropPagerCache()
	}
}
