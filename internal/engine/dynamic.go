package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"xseq/internal/query"
	"xseq/internal/xmltree"
)

// Dynamic makes an (immutable, frozen) engine updatable, the way the paper
// frames ViST as "a dynamic index method". The answer to a tree-pattern
// query over a document set is the union of its answers over the parts of
// any partition of the set, so the corpus is held as a frozen main engine
// plus a short list of frozen segments — each an engine the Builder made
// over a contiguous run of inserted documents — and a query merges the
// per-engine answers.
//
// Segments follow the Bentley–Saxe logarithmic method. An insert indexes
// its document once, as a 1-document segment; while a segment is no larger
// than the one after it, the two merge into one by a single Builder call.
// Segment sizes therefore strictly decrease in insertion order, at most
// ⌈log₂ threshold⌉ segments exist below the compaction watermark, and a
// document is re-indexed at most that many times before compaction folds
// every segment into a fresh main engine. The Builder decides the layout of
// every sub-engine — a sharded Builder gives updatable indexes parallel
// compaction rebuilds — and each sub-engine carries its own sequencing
// state (schema statistics and repeat set are per-build), so query
// equivalence holds on every part independently.
//
// Dynamic is safe for concurrent use; Insert and Query may interleave. No
// Builder call runs under the serving lock: a build works on a snapshot of
// immutable inputs and publishes its result by swapping pointers, so
// queries and inserts never wait for a merge or a compaction.
//
// Dynamic is failure-safe: a Builder that returns an error or panics never
// disturbs the serving state. A failed singleton build rejects its insert
// before anything is logged; a failed merge leaves both segments serving
// and is retried by the next insert; a failed compaction leaves the old
// main engine and every segment serving, is surfaced as a
// *CompactionError, and is retried once the pending documents grow by
// another threshold.
type Dynamic struct {
	build Builder

	// gen is bumped before any mutation of served results becomes visible
	// (insert, compaction), so a result-cache layer keyed by Generation can
	// never serve a pre-mutation answer as current. It is atomic so readers
	// never contend with the serving lock.
	gen atomic.Uint64

	// buildMu serializes the builds that replace published engines (merges,
	// compactions, rebuilds, recovery) and ResetTo. Only its holder removes
	// segments or replaces main, so a build that snapshotted segments [i, j)
	// finds them at the same positions when it publishes. Lock order:
	// buildMu, then mu.
	buildMu sync.Mutex

	mu       sync.RWMutex
	main     Engine
	mainDocs []*xmltree.Document
	// segs is the delta in insertion order. Readers copy the slice header
	// under mu and use it unlocked, so a published slice is never written
	// below its length: publishing a merge or compaction allocates a new
	// slice, and an insert's append only writes past every copy's length.
	segs      []segment
	pending   int // documents in segs
	seen      map[int32]bool
	threshold int
	compactAt int // pending count that triggers the next auto-compaction
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

// segment is one frozen engine over a contiguous run of inserted documents.
type segment struct {
	eng  Engine
	docs []*xmltree.Document
}

// WALSink is the durability hook Dynamic writes through when one is
// attached: WriteRecord persists an entry (no durability wait), WaitDurable
// blocks until it is fsynced. *wal.WAL satisfies it.
type WALSink interface {
	WriteRecord(seq uint64, payload []byte) error
	WaitDurable(ctx context.Context, seq uint64) error
}

// Builder constructs an engine over a corpus; Dynamic calls it for the
// initial corpus, for each inserted document, for segment merges, and for
// compactions, passing through the caller's context (stripped of its
// cancellation for the merges and compaction an insert leaves). The
// builder chooses the layout: returning a sharded engine makes compaction
// rebuilds parallel.
type Builder func(ctx context.Context, docs []*xmltree.Document) (Engine, error)

// CompactionError reports that folding the segments into the main engine
// failed (Builder error or panic). The index is still fully serviceable:
// the previous main engine and the pending documents are untouched,
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

// ErrNotApplied marks an insert rejected before anything was logged or
// applied because its document could not be indexed (Builder error, panic,
// or the insert's context ending): the document is not in the index and the
// insert is safe to retry. Detect it with errors.Is.
var ErrNotApplied = errors.New("engine: document not applied")

// DefaultCompactThreshold is the pending-document count that triggers
// automatic compaction (an absolute document count; below it a document is
// re-indexed at most log₂ of it times).
const DefaultCompactThreshold = 1024

// NewDynamic builds a dynamic engine over an initial corpus (which may be
// empty) with one Builder call. threshold <= 0 uses
// DefaultCompactThreshold.
func NewDynamic(build Builder, initial []*xmltree.Document, threshold int) (*Dynamic, error) {
	d, err := newDynamic(build, threshold)
	if err != nil {
		return nil, err
	}
	seen, err := corpusIDs(initial)
	if err != nil {
		return nil, fmt.Errorf("engine: initial corpus: %w", err)
	}
	var main Engine
	if len(initial) > 0 {
		if main, err = d.safeBuild(context.Background(), initial); err != nil {
			return nil, err
		}
	}
	d.install(main, initial, seen, 0)
	return d, nil
}

// ResumeDynamic returns a dynamic engine whose main engine is main, a frozen
// engine loaded from a snapshot, over its corpus docs — the restart
// counterpart of NewDynamic. It calls no Builder: nothing the snapshot
// indexed is indexed again. Documents a log holds beyond the snapshot follow
// through Recover. main may be nil only with an empty corpus.
func ResumeDynamic(build Builder, main Engine, docs []*xmltree.Document, threshold int) (*Dynamic, error) {
	d, err := newDynamic(build, threshold)
	if err != nil {
		return nil, err
	}
	if err := d.ResetTo(main, docs, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// newDynamic returns an empty dynamic engine over build.
func newDynamic(build Builder, threshold int) (*Dynamic, error) {
	if build == nil {
		return nil, fmt.Errorf("engine: a dynamic engine requires a Builder")
	}
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	return &Dynamic{build: build, seen: map[int32]bool{}, threshold: threshold, compactAt: threshold}, nil
}

// corpusIDs checks that a corpus holds no nil document and no repeated id,
// and returns its id set.
func corpusIDs(docs []*xmltree.Document) (map[int32]bool, error) {
	seen := make(map[int32]bool, len(docs))
	for _, doc := range docs {
		if doc == nil || doc.Root == nil {
			return nil, fmt.Errorf("nil document")
		}
		if seen[doc.ID] {
			return nil, fmt.Errorf("duplicate document id %d", doc.ID)
		}
		seen[doc.ID] = true
	}
	return seen, nil
}

// install replaces the entire serving state with main over docs (id set
// seen) at WAL sequence number seq. It takes buildMu, so it waits for any
// in-flight build and none can publish over the new state, then swaps under
// mu, so a reader sees either the complete old state or the complete new
// one. A compaction failure that the old state reported no longer describes
// the served state, so install clears it; the failure count stays.
func (d *Dynamic) install(main Engine, docs []*xmltree.Document, seen map[int32]bool, seq uint64) {
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Invalidate before the swap becomes visible, same rule as inserts.
	d.gen.Add(1)
	d.main = main
	d.mainDocs = append([]*xmltree.Document(nil), docs...)
	d.segs = nil
	d.pending = 0
	d.seen = seen
	d.appliedSeq = seq
	d.compactAt = d.threshold
	d.lastErr = nil
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

// InsertContext adds one document. It indexes the document under ctx as a
// 1-document segment before taking the serving lock; if that build fails,
// panics or is cancelled, the insert is rejected before anything is logged
// or applied, and the error wraps ErrNotApplied.
//
// After the apply it runs, outside the serving lock, the build work the
// insert leaves: a compaction once the pending documents reach the
// watermark, then the segment merges that restore the logarithmic shape
// (skipped when another build is in flight; a later insert picks them up).
// That work belongs to the index, not to the caller, so it runs without
// ctx's cancellation: neither a hang-up nor a deadline abandons it.
//
// If the automatic compaction fails, the document is still inserted (it
// remains pending and queryable) and the failure is returned as a
// *CompactionError; the rebuild is retried after threshold further
// inserts, and merges keep the segment count logarithmic meanwhile.
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
	one := []*xmltree.Document{doc}
	eng, err := d.safeBuild(ctx, one)
	if err != nil {
		return fmt.Errorf("%w: index document %d: %w", ErrNotApplied, doc.ID, err)
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
	d.segs = append(d.segs, segment{eng: eng, docs: one})
	d.pending++
	d.appliedSeq = seq
	sink := d.wal
	d.mu.Unlock()
	// The builds overlap the group commit the durability wait joins.
	cerr := d.settle(context.WithoutCancel(ctx))
	if sink != nil {
		if err := sink.WaitDurable(ctx, seq); err != nil {
			return fmt.Errorf("engine: document %d applied but not yet durable: %w", doc.ID, err)
		}
	}
	return cerr
}

// settle runs the build work an insert leaves: the auto-compaction once the
// pending documents reach the watermark, then merges until segment sizes
// strictly decrease. A failed compaction backs the watermark off by one
// threshold and is returned, after the merges ran. settle returns at once
// when another build holds buildMu; whatever that build leaves undone, the
// next insert settles.
func (d *Dynamic) settle(ctx context.Context) error {
	if !d.buildMu.TryLock() {
		return nil
	}
	defer d.buildMu.Unlock()
	var cerr error
	for {
		d.mu.RLock()
		segs, due := d.segs, d.pending >= d.compactAt
		d.mu.RUnlock()
		if due {
			if _, _, err := d.rebuild(ctx, false); err != nil {
				cerr = err
				d.mu.Lock()
				d.compactAt = d.pending + d.threshold
				d.mu.Unlock()
			}
			continue
		}
		i := mergePoint(segs)
		if i < 0 {
			return cerr
		}
		docs := make([]*xmltree.Document, 0, len(segs[i].docs)+len(segs[i+1].docs))
		docs = append(append(docs, segs[i].docs...), segs[i+1].docs...)
		eng, err := d.safeBuild(ctx, docs)
		if err != nil {
			// Both segments keep serving; the next insert retries.
			return cerr
		}
		// A merge preserves every answer, so the generation stays.
		d.mu.Lock()
		next := make([]segment, 0, len(d.segs)-1)
		next = append(next, d.segs[:i]...)
		next = append(next, segment{eng: eng, docs: docs})
		d.segs = append(next, d.segs[i+2:]...)
		d.mu.Unlock()
	}
}

// mergePoint returns the first i whose segment is no larger than segment
// i+1, or -1 when sizes strictly decrease. Merging leftmost first treats a
// run of equal small segments the way it would have treated them arriving
// one by one, so no document is re-indexed more than a binary counter
// would.
func mergePoint(segs []segment) int {
	for i := 0; i+1 < len(segs); i++ {
		if len(segs[i].docs) <= len(segs[i+1].docs) {
			return i
		}
	}
	return -1
}

// rebuild folds main and every segment present when it starts into a
// fresh main engine, returning the WAL sequence number and the main engine
// the result covers. The caller holds buildMu. force rebuilds main even
// with nothing pending (re-sequencing).
//
// The build runs without mu; segments appended meanwhile stay pending.
// Any failure (error, panic, cancellation) is a counted *CompactionError
// that leaves the serving state untouched.
func (d *Dynamic) rebuild(ctx context.Context, force bool) (uint64, Engine, error) {
	d.mu.RLock()
	seq, main, k := d.appliedSeq, d.main, len(d.segs)
	if k == 0 && (!force || len(d.mainDocs) == 0) {
		d.mu.RUnlock()
		return seq, main, nil
	}
	all := make([]*xmltree.Document, 0, len(d.mainDocs)+d.pending)
	all = append(all, d.mainDocs...)
	for _, s := range d.segs {
		all = append(all, s.docs...)
	}
	d.mu.RUnlock()

	eng, err := d.safeBuild(ctx, all)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		cerr := &CompactionError{Docs: len(all), Err: err}
		d.lastErr = cerr
		d.failures++
		return 0, nil, cerr
	}
	// Conservative invalidation: compaction preserves query answers, but a
	// generation bump here is cheap and keeps the rule simple — any
	// structural change of main invalidates.
	d.gen.Add(1)
	d.pending -= len(all) - len(d.mainDocs)
	d.main = eng
	d.mainDocs = all
	d.segs = append([]segment(nil), d.segs[k:]...)
	d.compactAt = d.threshold
	d.lastErr = nil
	d.compacts++
	return seq, eng, nil
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
// Replication uses it to skip entries a snapshot seed already covers (a
// crash between snapshotting and log rotation leaves an overlap).
func (d *Dynamic) Contains(id int32) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seen[id]
}

// ResetTo replaces the entire serving state with a frozen engine and its
// corpus — the one seeding step behind ResumeDynamic and a follower
// installing a primary checkpoint it can no longer reach through the log.
// It waits for any in-flight build, so none can publish over the new state.
// The swap is atomic with respect to queries and inserts: a reader sees
// either the complete old state or the complete new one, and the generation
// bump invalidates any result cache layered above. seq is the WAL sequence
// number the snapshot covers; replication resumes at seq+1. main may be nil
// only with an empty corpus. LastCompactionError reads nil afterwards;
// FailedCompactions keeps counting.
func (d *Dynamic) ResetTo(main Engine, docs []*xmltree.Document, seq uint64) error {
	if main == nil && len(docs) > 0 {
		return fmt.Errorf("engine: reset with %d documents but no engine", len(docs))
	}
	seen, err := corpusIDs(docs)
	if err != nil {
		return fmt.Errorf("engine: reset corpus: %w", err)
	}
	d.install(main, docs, seen, seq)
	return nil
}

// Recover indexes the documents a log replay found beyond the corpus — the
// restart step after ResumeDynamic — with at most one Builder call: none
// for an empty tail; while the pending documents stay below the compaction
// threshold, one build over the tail alone, published as one pending
// segment; once they reach it, one build over the main engine's corpus and
// the tail into a fresh main engine — on a freshly resumed engine, the
// build NewDynamic makes. A failed build is returned and changes nothing.
// Call it before serving begins.
func (d *Dynamic) Recover(ctx context.Context, tail []*xmltree.Document) error {
	if len(tail) == 0 {
		return nil
	}
	ids, err := corpusIDs(tail)
	if err != nil {
		return fmt.Errorf("engine: recover: %w", err)
	}
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	d.mu.RLock()
	for id := range ids {
		if d.seen[id] {
			d.mu.RUnlock()
			return fmt.Errorf("engine: recover: duplicate document id %d", id)
		}
	}
	docs, asSegment := tail, d.pending+len(tail) < d.compactAt
	if !asSegment {
		docs = make([]*xmltree.Document, 0, len(d.mainDocs)+len(tail))
		docs = append(append(docs, d.mainDocs...), tail...)
	}
	d.mu.RUnlock()

	eng, err := d.safeBuild(ctx, docs)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen.Add(1)
	for id := range ids {
		d.seen[id] = true
	}
	if asSegment {
		d.segs = append(d.segs, segment{eng: eng, docs: tail})
		d.pending += len(tail)
	} else {
		d.main, d.mainDocs = eng, docs
	}
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

// CompactForCheckpoint compacts and returns the sequence number the
// compacted state covers together with the frozen main engine covering
// exactly the entries up to it (nil for an empty corpus). Inserts may land
// during the build; they stay pending and their sequence numbers are
// higher. Snapshotting that engine and then rotating the WAL at that
// sequence number is the checkpoint recipe: every logged entry not in the
// snapshot stays in the log.
func (d *Dynamic) CompactForCheckpoint(ctx context.Context) (uint64, Engine, error) {
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	return d.rebuild(ctx, false)
}

// Query answers a pattern over main + segments, ids ascending; it is
// QueryContext with context.Background().
func (d *Dynamic) Query(pat *query.Pattern) ([]int32, error) {
	return d.QueryContext(context.Background(), pat)
}

// QueryContext answers a pattern over main + segments, ids ascending,
// honouring ctx in the match loops.
func (d *Dynamic) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return d.QueryWithContext(ctx, pat, QueryOptions{})
}

// QueryWithContext is QueryContext with per-query options: verification and
// work-profile accumulation apply to every part and merge; MaxResults
// counts across main and then the segments in insertion order, skipping the
// rest once the budget is filled. It holds the read lock only to copy the
// engine list.
func (d *Dynamic) QueryWithContext(ctx context.Context, pat *query.Pattern, qo QueryOptions) ([]int32, error) {
	d.mu.RLock()
	main, segs := d.main, d.segs
	d.mu.RUnlock()

	// One list per part; below the compaction watermark main plus ⌈log₂
	// DefaultCompactThreshold⌉ segments fit the stack buffer.
	var buf [16][]int32
	lists, found := buf[:0], 0
	for i := -1; i < len(segs); i++ {
		sub := main
		if i >= 0 {
			sub = segs[i].eng
		}
		if sub == nil {
			continue
		}
		sqo := qo
		var st QueryStats
		if qo.Stats != nil {
			sqo.Stats = &st
		}
		if qo.MaxResults > 0 {
			if sqo.MaxResults = qo.MaxResults - found; sqo.MaxResults <= 0 {
				break
			}
		}
		ids, err := sub.QueryWithContext(ctx, pat, sqo)
		if err != nil {
			return nil, err
		}
		if len(ids) > 0 {
			lists = append(lists, ids)
			found += len(ids)
		}
		if qo.Stats != nil {
			qo.Stats.Add(st)
		}
	}
	// The parts' ids are disjoint (duplicate ids are rejected at insert) and
	// each list is already ascending, so the merge needs no deduplication.
	// Sub-engine results are caller-owned fresh slices, so a single list
	// may be returned directly.
	var out []int32
	switch len(lists) {
	case 0:
	case 1:
		out = lists[0]
	default:
		out = MergeAscending(lists, make([]int32, 0, found), 0)
	}
	if qo.Stats != nil {
		qo.Stats.Results = len(out)
	}
	return out, nil
}

// Compact folds the segments into a fresh main engine; it is CompactContext
// with context.Background().
func (d *Dynamic) Compact() error {
	return d.CompactContext(context.Background())
}

// CompactContext folds the segments into a fresh main engine under ctx. On
// failure it returns a *CompactionError and leaves the serving state (main
// engine and segments) untouched.
func (d *Dynamic) CompactContext(ctx context.Context) error {
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	_, _, err := d.rebuild(ctx, false)
	return err
}

// RebuildContext rebuilds the main engine over the full corpus even when no
// documents are pending — the adaptive-resequencing entry point: after the
// builder's sequencing weights change, a forced rebuild re-sequences every
// document, where CompactContext would no-op with nothing pending. It
// shares compaction's failure containment exactly: a failed rebuild (error,
// panic, cancellation) is a counted *CompactionError that leaves the
// serving state untouched.
func (d *Dynamic) RebuildContext(ctx context.Context) error {
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	_, _, err := d.rebuild(ctx, true)
	return err
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
// after a successful compaction or a ResetTo (or if none ever failed).
func (d *Dynamic) LastCompactionError() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lastErr
}

// NumDocuments reports the total corpus size (main + pending).
func (d *Dynamic) NumDocuments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.mainDocs) + d.pending
}

// PendingDocuments reports how many documents await compaction, summed
// over the segments.
func (d *Dynamic) PendingDocuments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pending
}

// NumNodes reports the main engine's trie node count (0 before the first
// build); the segments' nodes are transient.
func (d *Dynamic) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.main == nil {
		return 0
	}
	return d.main.NumNodes()
}

// NumLinks reports the main engine's distinct path count (0 before the
// first build); the segments' links are transient.
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

// Documents returns the current corpus (main, then pending) in insertion
// order. Unlike frozen engines, a Dynamic always retains its documents —
// they are the compaction input — so this never depends on a KeepDocuments
// option.
func (d *Dynamic) Documents() []*xmltree.Document {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*xmltree.Document, 0, len(d.mainDocs)+d.pending)
	out = append(out, d.mainDocs...)
	for _, s := range d.segs {
		out = append(out, s.docs...)
	}
	return out
}

// Save is unsupported: a dynamic engine's segment state is transient by
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
