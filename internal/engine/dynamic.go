package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"xseq/internal/query"
	"xseq/internal/xmltree"
)

// Dynamic makes an (immutable, frozen) engine updatable, the way the paper
// frames ViST as "a dynamic index method": new documents accumulate in a
// delta buffer; queries run against the frozen main engine plus a small
// engine built lazily over the delta; Compact folds everything into a fresh
// main engine. The Builder decides the layout of every sub-engine — a
// sharded Builder gives updatable indexes parallel compaction rebuilds —
// and each sub-engine carries its own sequencing state (schema statistics
// and repeat set are per-build), so query equivalence holds on both sides
// independently.
//
// Dynamic is safe for concurrent use; Insert and Query may interleave.
//
// Dynamic is failure-safe: a Builder that returns an error or panics during
// compaction (or delta construction) never disturbs the serving state — the
// old main engine and buffer stay exactly as they were, the failure is
// surfaced as a *CompactionError, and compaction is retried once the buffer
// grows by another threshold.
type Dynamic struct {
	build Builder

	// gen is bumped before any mutation of served results becomes visible
	// (insert, compaction), so a result-cache layer keyed by Generation can
	// never serve a pre-mutation answer as current. It is atomic so readers
	// never contend with the serving lock.
	gen atomic.Uint64

	mu        sync.RWMutex
	main      Engine
	mainDocs  []*xmltree.Document
	buffer    []*xmltree.Document
	delta     Engine // nil when dirty or buffer empty
	seen      map[int32]bool
	threshold int
	compactAt int // buffer size that triggers the next auto-compaction
	lastErr   error
	compacts  int // successful compactions
	failures  int // failed compaction attempts

	// Durability hook (nil without one): every insert is framed and written
	// to the sink — under mu, after validation, before the in-memory apply —
	// so the log and the served state never diverge; the durability wait
	// happens after mu is released so a slow fsync never blocks readers.
	wal        WALSink
	encode     func(*xmltree.Document) ([]byte, error)
	appliedSeq uint64 // seq of the last applied insert
}

// WALSink is the durability hook Dynamic writes through when one is
// attached: WriteRecord persists an entry (no durability wait), WaitDurable
// blocks until it is fsynced. *wal.WAL satisfies it.
type WALSink interface {
	WriteRecord(seq uint64, payload []byte) error
	WaitDurable(ctx context.Context, seq uint64) error
}

// Builder constructs an engine over a corpus; Dynamic calls it for the
// initial corpus, for delta rebuilds, and for compactions, passing through
// the caller's context. The builder chooses the layout: returning a sharded
// engine makes compaction rebuilds parallel.
type Builder func(ctx context.Context, docs []*xmltree.Document) (Engine, error)

// CompactionError reports that folding the delta into the main engine
// failed (Builder error or panic). The index is still fully serviceable:
// the previous main engine and the buffered documents are untouched,
// queries keep answering exactly as before the attempt, and compaction is
// retried automatically at the next threshold crossing.
type CompactionError struct {
	// Docs is the corpus size of the failed rebuild.
	Docs int
	// Err is the Builder failure (a recovered panic is wrapped in an error).
	Err error
}

func (e *CompactionError) Error() string {
	return fmt.Sprintf("engine: compaction of %d documents failed (still serving pre-compaction state): %v", e.Docs, e.Err)
}

func (e *CompactionError) Unwrap() error { return e.Err }

// DefaultCompactThreshold is the delta size that triggers automatic
// compaction (relative to nothing — an absolute document count; deltas stay
// small so their rebuild cost stays negligible).
const DefaultCompactThreshold = 1024

// NewDynamic builds a dynamic engine over an initial corpus (which may be
// empty). threshold <= 0 uses DefaultCompactThreshold.
func NewDynamic(build Builder, initial []*xmltree.Document, threshold int) (*Dynamic, error) {
	if build == nil {
		return nil, fmt.Errorf("engine: NewDynamic requires a Builder")
	}
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	d := &Dynamic{build: build, seen: map[int32]bool{}, threshold: threshold, compactAt: threshold}
	for _, doc := range initial {
		if doc == nil {
			return nil, fmt.Errorf("engine: nil initial document")
		}
		if d.seen[doc.ID] {
			return nil, fmt.Errorf("engine: duplicate document id %d", doc.ID)
		}
		d.seen[doc.ID] = true
	}
	if len(initial) > 0 {
		main, err := d.safeBuild(context.Background(), initial)
		if err != nil {
			return nil, err
		}
		d.main = main
		d.mainDocs = append(d.mainDocs, initial...)
	}
	return d, nil
}

// safeBuild runs the Builder, converting a panic into an error so a faulty
// Builder can never tear down a serving Dynamic.
func (d *Dynamic) safeBuild(ctx context.Context, docs []*xmltree.Document) (e Engine, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("engine: builder panic: %v", r)
		}
	}()
	e, err = d.build(ctx, docs)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, fmt.Errorf("engine: builder returned nil engine")
	}
	return e, nil
}

// Insert adds one document; it is InsertContext with context.Background().
func (d *Dynamic) Insert(doc *xmltree.Document) error {
	return d.InsertContext(context.Background(), doc)
}

// InsertContext adds one document. The delta engine is invalidated and
// rebuilt on the next query; when the delta reaches the compaction
// watermark the whole index is rebuilt inline under ctx.
//
// If that automatic compaction fails, the document is still inserted (it
// remains buffered and queryable) and the failure is returned as a
// *CompactionError; the rebuild is retried after threshold further inserts.
//
// With a WAL attached, the entry is written to the log before the document
// becomes visible and the call blocks until it is durable: a returned nil
// means the insert survives kill -9. A durability failure after the apply is
// returned as an error — the caller must treat the insert as unacknowledged
// even though this process already serves it (at-least-once on replay).
func (d *Dynamic) InsertContext(ctx context.Context, doc *xmltree.Document) error {
	if doc == nil || doc.Root == nil {
		return fmt.Errorf("engine: nil document")
	}
	d.mu.Lock()
	if d.seen[doc.ID] {
		d.mu.Unlock()
		return fmt.Errorf("engine: duplicate document id %d", doc.ID)
	}
	// Log before apply: a failed write leaves both the log and the served
	// state untouched; a successful write that this process then loses
	// (crash before the apply below completes) is replayed on restart.
	// Validation (the duplicate check above) runs first so the log never
	// records an entry the in-memory apply would reject — replay must
	// re-apply every logged entry verbatim.
	seq := d.appliedSeq + 1
	if d.wal != nil {
		payload, err := d.encode(doc)
		if err != nil {
			d.mu.Unlock()
			return fmt.Errorf("engine: encode document %d for wal: %w", doc.ID, err)
		}
		if err := d.wal.WriteRecord(seq, payload); err != nil {
			d.mu.Unlock()
			return fmt.Errorf("engine: wal append for document %d: %w", doc.ID, err)
		}
	}
	// Invalidate cached results before the new document becomes visible: a
	// reader that still observes the old generation can only be served
	// pre-insert answers, which were correct when that generation was
	// current.
	d.gen.Add(1)
	d.seen[doc.ID] = true
	d.buffer = append(d.buffer, doc)
	d.delta = nil
	d.appliedSeq = seq
	var cerr error
	if len(d.buffer) >= d.compactAt {
		if cerr = d.compactLocked(ctx); cerr != nil {
			// Keep serving the old state; back off one threshold before
			// the next automatic attempt.
			d.compactAt = len(d.buffer) + d.threshold
		}
	}
	sink := d.wal
	d.mu.Unlock()
	if sink != nil {
		if err := sink.WaitDurable(ctx, seq); err != nil {
			return fmt.Errorf("engine: document %d applied but not yet durable: %w", doc.ID, err)
		}
	}
	return cerr
}

// AttachWAL arms the durability hook: every subsequent insert is encoded
// and written to sink before it is applied. lastSeq seeds the sequence
// numbering — pass the replayed log's last sequence number so new inserts
// continue where the log left off. Call before serving begins; AttachWAL
// itself is not synchronized against in-flight inserts.
func (d *Dynamic) AttachWAL(sink WALSink, encode func(*xmltree.Document) ([]byte, error), lastSeq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = sink
	d.encode = encode
	d.appliedSeq = lastSeq
}

// AppliedSeq reports the sequence number of the last applied insert —
// seeded by AttachWAL from the replayed log, advanced by every insert
// (with or without a WAL attached, so a follower replica without a local
// log still tracks the primary's numbering).
func (d *Dynamic) AppliedSeq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.appliedSeq
}

// Contains reports whether a document with the given id is in the corpus.
// WAL replay uses it to skip entries a checkpoint snapshot already covers
// (a crash between snapshotting and log rotation leaves an overlap).
func (d *Dynamic) Contains(id int32) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seen[id]
}

// ResetTo replaces the entire serving state with a frozen engine and its
// corpus — the re-seed primitive for a follower installing a primary
// checkpoint it can no longer reach through the log. The swap is atomic
// with respect to queries and inserts: a reader sees either the complete
// old state or the complete new one, and the generation bump invalidates
// any result cache layered above. seq is the WAL sequence number the
// snapshot covers; replication resumes at seq+1. main may be nil only
// with an empty corpus.
func (d *Dynamic) ResetTo(main Engine, docs []*xmltree.Document, seq uint64) error {
	seen := make(map[int32]bool, len(docs))
	for _, doc := range docs {
		if doc == nil || doc.Root == nil {
			return fmt.Errorf("engine: nil document in reset corpus")
		}
		if seen[doc.ID] {
			return fmt.Errorf("engine: duplicate document id %d in reset corpus", doc.ID)
		}
		seen[doc.ID] = true
	}
	if main == nil && len(docs) > 0 {
		return fmt.Errorf("engine: reset with %d documents but no engine", len(docs))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Invalidate before the swap becomes visible, same rule as inserts.
	d.gen.Add(1)
	d.main = main
	d.mainDocs = append([]*xmltree.Document(nil), docs...)
	d.buffer = nil
	d.delta = nil
	d.seen = seen
	d.appliedSeq = seq
	d.compactAt = d.threshold
	return nil
}

// SkipReplicated advances the replication position past an entry whose
// document the corpus already holds — the overlap a snapshot seed leaves
// when the primary's checkpoint covers more than its advertised sequence
// number (a crash between snapshot save and log rotation). The entry must
// be the next in order, exactly like an applied one.
func (d *Dynamic) SkipReplicated(seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := d.appliedSeq + 1; seq != want {
		return fmt.Errorf("engine: skip replicated seq %d, want %d", seq, want)
	}
	d.appliedSeq = seq
	return nil
}

// CompactForCheckpoint compacts and returns, atomically with respect to
// inserts, the sequence number the compacted state covers and the frozen
// main engine (nil for an empty corpus). Snapshotting that engine and then
// rotating the WAL at that sequence number is the checkpoint recipe: every
// logged entry not in the snapshot stays in the log.
func (d *Dynamic) CompactForCheckpoint(ctx context.Context) (uint64, Engine, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.compactLocked(ctx); err != nil {
		return 0, nil, err
	}
	return d.appliedSeq, d.main, nil
}

// Query answers a pattern over main + delta, ids ascending; it is
// QueryContext with context.Background().
func (d *Dynamic) Query(pat *query.Pattern) ([]int32, error) {
	return d.QueryContext(context.Background(), pat)
}

// QueryContext answers a pattern over main + delta, ids ascending,
// honouring ctx both in the lazy delta rebuild and in the match loops.
func (d *Dynamic) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return d.QueryWithContext(ctx, pat, QueryOptions{})
}

// QueryWithContext is QueryContext with per-query options: verification and
// work-profile accumulation apply to both sides and merge; MaxResults
// counts across main + delta, skipping the delta when the main engine
// already filled the budget.
func (d *Dynamic) QueryWithContext(ctx context.Context, pat *query.Pattern, qo QueryOptions) ([]int32, error) {
	d.mu.Lock()
	if d.delta == nil && len(d.buffer) > 0 {
		delta, err := d.safeBuild(ctx, d.buffer)
		if err != nil {
			d.mu.Unlock()
			return nil, err
		}
		d.delta = delta
	}
	main, delta := d.main, d.delta
	d.mu.Unlock()

	var (
		lists    [2][]int32
		n, found int
	)
	for _, sub := range []Engine{main, delta} {
		if sub == nil {
			continue
		}
		sqo := qo
		var st QueryStats
		if qo.Stats != nil {
			sqo.Stats = &st
		}
		if qo.MaxResults > 0 {
			remaining := qo.MaxResults - found
			if remaining <= 0 {
				break
			}
			sqo.MaxResults = remaining
		}
		ids, err := sub.QueryWithContext(ctx, pat, sqo)
		if err != nil {
			return nil, err
		}
		lists[n] = ids
		n++
		found += len(ids)
		if qo.Stats != nil {
			qo.Stats.Add(st)
		}
	}
	// Main and delta ids are disjoint (duplicate ids are rejected at
	// insert) and each side is already ascending, so the merge is a two-way
	// merge with no deduplication. Sub-engine results are caller-owned
	// fresh slices, so a single-list merge may return it directly.
	var out []int32
	switch {
	case n == 1:
		out = lists[0]
	case n == 2:
		out = MergeAscending(lists[:], make([]int32, 0, found), 0)
	}
	if qo.Stats != nil {
		qo.Stats.Results = len(out)
	}
	return out, nil
}

// Compact folds the delta into a fresh main engine; it is CompactContext
// with context.Background().
func (d *Dynamic) Compact() error {
	return d.CompactContext(context.Background())
}

// CompactContext folds the delta into a fresh main engine under ctx. On
// failure it returns a *CompactionError and leaves the serving state (main
// engine and buffer) untouched.
func (d *Dynamic) CompactContext(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked(ctx)
}

// RebuildContext rebuilds the main engine over the full corpus even when no
// documents are buffered — the adaptive-resequencing entry point: after the
// builder's sequencing weights change, a forced rebuild re-sequences every
// document, where CompactContext would no-op on an empty buffer. It shares
// compaction's failure containment exactly: a failed rebuild (error, panic,
// cancellation) is a counted *CompactionError that leaves the serving state
// untouched.
func (d *Dynamic) RebuildContext(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rebuildLocked(ctx, true)
}

// compactLocked rebuilds main over mainDocs + buffer. All serving state is
// replaced atomically only after a successful build; any failure (error,
// panic, cancellation) leaves it untouched.
func (d *Dynamic) compactLocked(ctx context.Context) error {
	return d.rebuildLocked(ctx, false)
}

func (d *Dynamic) rebuildLocked(ctx context.Context, force bool) error {
	if len(d.buffer) == 0 && (!force || len(d.mainDocs) == 0) {
		return nil
	}
	// Conservative invalidation: compaction preserves query answers, but a
	// generation bump here is cheap and keeps the rule simple — any
	// structural change invalidates.
	d.gen.Add(1)
	all := append(append([]*xmltree.Document{}, d.mainDocs...), d.buffer...)
	main, err := d.safeBuild(ctx, all)
	if err != nil {
		cerr := &CompactionError{Docs: len(all), Err: err}
		d.lastErr = cerr
		d.failures++
		return cerr
	}
	d.main = main
	d.mainDocs = all
	d.buffer = nil
	d.delta = nil
	d.compactAt = d.threshold
	d.lastErr = nil
	d.compacts++
	return nil
}

// Compactions reports how many compactions have succeeded.
func (d *Dynamic) Compactions() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.compacts
}

// FailedCompactions reports how many compaction attempts have failed.
func (d *Dynamic) FailedCompactions() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.failures
}

// LastCompactionError returns the most recent compaction failure, or nil
// after a successful compaction (or if none ever failed).
func (d *Dynamic) LastCompactionError() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lastErr
}

// NumDocuments reports the total corpus size (main + buffered).
func (d *Dynamic) NumDocuments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.mainDocs) + len(d.buffer)
}

// PendingDocuments reports how many documents await compaction.
func (d *Dynamic) PendingDocuments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.buffer)
}

// NumNodes reports the main engine's trie node count (0 before the first
// build); the delta's nodes are transient.
func (d *Dynamic) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.main == nil {
		return 0
	}
	return d.main.NumNodes()
}

// NumLinks reports the main engine's distinct path count (0 before the
// first build); the delta's links are transient.
func (d *Dynamic) NumLinks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.main == nil {
		return 0
	}
	return d.main.NumLinks()
}

// EstimatedDiskBytes reports the main engine's estimated size (0 before the
// first build).
func (d *Dynamic) EstimatedDiskBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.main == nil {
		return 0
	}
	return d.main.EstimatedDiskBytes()
}

// Shards reports the main engine's partition statistics — non-nil exactly
// when the Builder produces sharded engines.
func (d *Dynamic) Shards() []ShardStat {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.main == nil {
		return nil
	}
	return d.main.Shards()
}

// Documents returns the current corpus (main + buffered). Unlike frozen
// engines, a Dynamic always retains its documents — they are the compaction
// input — so this never depends on a KeepDocuments option.
func (d *Dynamic) Documents() []*xmltree.Document {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*xmltree.Document, 0, len(d.mainDocs)+len(d.buffer))
	out = append(out, d.mainDocs...)
	out = append(out, d.buffer...)
	return out
}

// Save is unsupported: a dynamic engine's delta state is transient by
// design. Compact first and snapshot the frozen main engine instead.
func (d *Dynamic) Save(w io.Writer) error {
	return fmt.Errorf("engine: dynamic index snapshot: %w", ErrUnsupported)
}

// Generation identifies the currently served corpus state; it bumps before
// every insert and compaction so generation-keyed caches invalidate.
func (d *Dynamic) Generation() uint64 { return d.gen.Load() }

// Main exposes the current frozen main engine (nil before the first build).
func (d *Dynamic) Main() Engine {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.main
}

var _ Engine = (*Dynamic)(nil)
