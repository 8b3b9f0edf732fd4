// Package index implements the paper's index structure (Section 4.1) and its
// constraint subsequence matching (Section 4.2, Algorithm 1):
//
//   - Sequence Insertion: each document's constraint sequence goes into a
//     trie; document ids accumulate at end nodes.
//   - Tree Labeling: trie nodes get (n⊢, n⊣) interval labels.
//   - Path Linking: one horizontal link per distinct path, holding the
//     labels of all trie nodes with that path encoding, in ascending n⊢
//     order, binary searchable (Figures 8/9).
//
// Queries run in internal/match, the one implementation of Algorithm 1 and
// its driver; this package builds, persists and validates the structure and
// hands the kernel its links (in match.Link column form) and doc-id lists.
package index

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"xseq/internal/engine"
	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

// Options configures Build.
type Options struct {
	// Encoder interns designators and paths; required, and must be the
	// encoder the Strategy was built with.
	Encoder *pathenc.Encoder
	// Strategy sequences documents. For querying it must also implement
	// sequence.Prioritizer (the probability strategy g_best does); index
	// building alone works with any strategy.
	Strategy sequence.Strategy
	// BulkLoad sorts sequences before insertion (static data path).
	BulkLoad bool
	// InstantiationLimit caps wildcard expansion per pattern
	// (<= 0: query.DefaultInstantiationLimit).
	InstantiationLimit int
	// OrderEnumerationLimit caps identical-sibling order enumeration per
	// instance (<= 0: match.DefaultOrderEnumerationLimit).
	OrderEnumerationLimit int
	// KeepDocuments retains the corpus for the verified query modes and
	// baselines that post-process candidates.
	KeepDocuments bool
}

// endList flattens doc-id lists: ends[i] holds the pre label of an end node
// and the [off, off+n) slice of docIDs.
type endList struct {
	pres []int32
	offs []int32
	lens []int32
	ids  []int32
}

// Index is a built, immutable sequence index over a corpus.
type Index struct {
	enc       *pathenc.Encoder
	strategy  sequence.Strategy
	prio      sequence.Prioritizer // nil if strategy has no priority
	links     map[pathenc.PathID]*match.Link
	ends      endList
	ci        *pathenc.ChildIndex
	opts      Options
	numDocs   int
	maxDocID  int32
	maxSerial int32
	docs      []*xmltree.Document // only when KeepDocuments

	eng match.Engine // the query kernel over this index's links and ends
	pg  *pagedLayout // nil unless AttachPager was called
}

// Build sequences and indexes the corpus. Document IDs must be unique and
// non-negative. It is BuildContext with context.Background().
func Build(docs []*xmltree.Document, opts Options) (*Index, error) {
	return BuildContext(context.Background(), docs, opts)
}

// BuildContext is Build honouring ctx: cancellation is checked between
// documents, so a giant build can be aborted with bounded latency (one
// document's sequencing). On cancellation the ctx error is returned and the
// partially built state is discarded.
func BuildContext(ctx context.Context, docs []*xmltree.Document, opts Options) (*Index, error) {
	if opts.Encoder == nil {
		return nil, fmt.Errorf("index: Options.Encoder is required")
	}
	if opts.Strategy == nil {
		return nil, fmt.Errorf("index: Options.Strategy is required")
	}
	ix := &Index{
		enc:      opts.Encoder,
		strategy: opts.Strategy,
		opts:     opts,
	}
	if p, ok := opts.Strategy.(sequence.Prioritizer); ok {
		ix.prio = p
	}
	// Pre-scan: install the corpus repeat set so data and query sequencing
	// block the same paths (see sequence.RepeatAware).
	if ra, ok := opts.Strategy.(sequence.RepeatAware); ok {
		roots := make([]*xmltree.Node, len(docs))
		for i, d := range docs {
			roots[i] = d.Root
		}
		ra.SetRepeatPaths(sequence.RepeatPaths(roots, opts.Encoder))
	}
	tr := trie.New()
	seen := map[int32]bool{}
	seqs := make([]sequence.Sequence, 0, len(docs))
	ids := make([]int32, 0, len(docs))
	for _, d := range docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d.ID < 0 {
			return nil, fmt.Errorf("index: negative document id %d", d.ID)
		}
		if seen[d.ID] {
			return nil, fmt.Errorf("index: duplicate document id %d", d.ID)
		}
		seen[d.ID] = true
		if d.ID > ix.maxDocID {
			ix.maxDocID = d.ID
		}
		s := opts.Strategy.Sequence(d.Root)
		if opts.BulkLoad {
			seqs = append(seqs, s)
			ids = append(ids, d.ID)
		} else {
			tr.Insert(s, d.ID)
		}
	}
	if opts.BulkLoad {
		if err := tr.BulkLoad(seqs, ids); err != nil {
			return nil, err
		}
	}
	ix.numDocs = len(docs)
	if opts.KeepDocuments {
		ix.docs = docs
	}
	ix.freeze(tr)
	return ix, nil
}

// freeze labels the trie and builds the path links and the flattened doc-id
// lists from it. Queries and Save need only those, so the index does not keep
// the trie: its nodes and maps would otherwise stay live as long as the index.
func (ix *Index) freeze(tr *trie.Trie) {
	tr.Freeze()
	// Size every link first, so their label columns come out of one arena.
	counts := map[pathenc.PathID]int32{}
	for n := trie.NodeID(1); int(n) <= tr.NumNodes(); n++ {
		counts[tr.Path(n)]++
	}
	ix.links = allocLinks(counts)
	// One pre-order pass; per-path stacks of open link-entry indices give
	// each entry its nearest same-path ancestor. The walk is pre-order, so
	// link entries are filled in ascending pre order automatically.
	type open struct {
		entry int32 // index within the link
		max   int32 // subtree end, for popping
	}
	type filling struct {
		l    *match.Link
		next int32 // entries filled so far
		open []open
	}
	slab := make([]filling, 0, len(ix.links))
	fills := make(map[pathenc.PathID]*filling, len(ix.links))
	for p, l := range ix.links {
		slab = append(slab, filling{l: l})
		fills[p] = &slab[len(slab)-1]
	}
	tr.WalkPreOrder(func(n trie.NodeID, _ int) bool {
		f := fills[tr.Path(n)]
		pre, max := tr.Pre(n), tr.Max(n)
		f.l.Set(f.next, pre, max)
		// Pop entries whose subtree has ended.
		st := f.open
		for len(st) > 0 && st[len(st)-1].max < pre {
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			anc := st[len(st)-1].entry
			f.l.SetAnc(f.next, anc)
			f.l.SetEmbeds(anc)
		}
		f.open = append(st, open{entry: f.next, max: max})
		f.next++
		return true
	})
	// Flatten doc-id lists sorted by pre.
	type endNode struct {
		pre int32
		ids []int32
	}
	var ends []endNode
	total := 0
	tr.WalkPreOrder(func(n trie.NodeID, _ int) bool {
		if ids := tr.Docs(n); len(ids) > 0 {
			ends = append(ends, endNode{tr.Pre(n), ids})
			total += len(ids)
		}
		return true
	})
	slices.SortFunc(ends, func(a, b endNode) int { return int(a.pre) - int(b.pre) })
	ix.ends.pres = make([]int32, len(ends))
	ix.ends.offs = make([]int32, len(ends))
	ix.ends.lens = make([]int32, len(ends))
	ix.ends.ids = make([]int32, 0, total)
	for i, e := range ends {
		ix.ends.pres[i] = e.pre
		ix.ends.offs[i] = int32(len(ix.ends.ids))
		ix.ends.lens[i] = int32(len(e.ids))
		ix.ends.ids = append(ix.ends.ids, e.ids...)
	}
	ix.ci = ix.enc.BuildChildIndex()
	ix.maxSerial = int32(tr.NumNodes())
	ix.initEngine()
}

// allocLinks carves one zeroed link per path, of the given entry count, out
// of a single arena.
func allocLinks(counts map[pathenc.PathID]int32) map[pathenc.PathID]*match.Link {
	total := 0
	for _, n := range counts {
		total += match.LinkBytes(int(n), false)
	}
	arena := make([]byte, total)
	views := make([]match.Link, 0, len(counts))
	links := make(map[pathenc.PathID]*match.Link, len(counts))
	for p, n := range counts {
		views = append(views, match.NewLink(arena, n, false, 0))
		arena = arena[match.LinkBytes(int(n), false):]
		links[p] = &views[len(views)-1]
	}
	return links
}

// initEngine points the query kernel at the finished index.
func (ix *Index) initEngine() {
	ix.eng = match.Engine{
		Layout:                ix,
		Enc:                   ix.enc,
		ChildIdx:              ix.ci,
		Prio:                  ix.prio,
		InstantiationLimit:    ix.opts.InstantiationLimit,
		OrderEnumerationLimit: ix.opts.OrderEnumerationLimit,
		MaxDocID:              ix.maxDocID,
		MaxSerial:             ix.maxSerial,
	}
}

// Encoder returns the index's designator/path table.
func (ix *Index) Encoder() *pathenc.Encoder { return ix.enc }

// Strategy returns the sequencing strategy the index was built with.
func (ix *Index) Strategy() sequence.Strategy { return ix.strategy }

// NumDocuments reports the corpus size.
func (ix *Index) NumDocuments() int { return ix.numDocs }

// NumNodes reports the trie node count — the index-size metric of
// Figures 14/15 and Tables 5/6.
func (ix *Index) NumNodes() int { return int(ix.maxSerial) }

// NumLinks reports the number of distinct paths (horizontal links).
func (ix *Index) NumLinks() int { return len(ix.links) }

// LinkLength reports the number of labels in the link of path p.
func (ix *Index) LinkLength(p pathenc.PathID) int { return int(ix.links[p].Len()) }

// EstimatedDiskBytes applies the paper's sizing formula for the final
// disk-based index: 4n + cN bytes with n the number of indexed records, N
// the trie node count, and c ≈ 8 (Section 6.2).
func (ix *Index) EstimatedDiskBytes() int64 {
	const c = 8
	return 4*int64(ix.numDocs) + c*int64(ix.NumNodes())
}

// Documents returns the retained corpus (nil unless KeepDocuments).
func (ix *Index) Documents() []*xmltree.Document { return ix.docs }

// ChildIdx exposes the frozen path-table snapshot for query instantiation.
func (ix *Index) ChildIdx() *pathenc.ChildIndex { return ix.ci }

// MaxSerial returns the largest pre-order serial (the root's n⊣).
func (ix *Index) MaxSerial() int32 { return ix.maxSerial }

// LinkEntries returns the (pre, max) interval labels of path p's link in
// ascending pre order. Baseline engines (ViST-style branch matching) build
// on this.
func (ix *Index) LinkEntries(p pathenc.PathID) []Interval {
	return ix.scanLink(ix.links[p], 0, ix.maxSerial)
}

// LinkEntriesInRange returns the link entries of p with pre ∈ [lo, hi],
// binary searching the link (charging page touches when paged).
func (ix *Index) LinkEntriesInRange(p pathenc.PathID, lo, hi int32) []Interval {
	l := ix.links[p]
	return ix.scanLink(l, l.LowerBound(lo, ix.Pager()), hi)
}

// scanLink returns l's entries from index k on while pre <= hi.
func (ix *Index) scanLink(l *match.Link, k, hi int32) []Interval {
	pg := ix.Pager()
	var out []Interval
	for ; k < l.Len() && l.Pre(k) <= hi; k++ {
		if pg != nil {
			pg.TouchLink(l, k)
		}
		out = append(out, Interval{Pre: l.Pre(k), Max: l.Max(k)})
	}
	return out
}

// DocsInPreRange returns (appending to out) the ids of documents whose
// sequences end at a node with pre ∈ [lo, hi].
func (ix *Index) DocsInPreRange(lo, hi int32, out []int32) []int32 {
	out, _ = ix.CollectDocs(lo, hi, out, ix.Pager())
	return out
}

// Interval is a trie node's (n⊢, n⊣) label pair.
type Interval struct {
	Pre, Max int32
}

// CollectDocs appends the document ids of all end nodes with pre ∈ [lo,hi],
// charging the doc-id slots it reads to pg (match.Layout); heap lists
// cannot fail.
func (ix *Index) CollectDocs(lo, hi int32, out []int32, pg match.Pager) ([]int32, error) {
	i := sort.Search(len(ix.ends.pres), func(k int) bool { return ix.ends.pres[k] >= lo })
	for ; i < len(ix.ends.pres) && ix.ends.pres[i] <= hi; i++ {
		off, n := ix.ends.offs[i], ix.ends.lens[i]
		if pg != nil {
			pg.TouchRange(uint64(off), int(n))
		}
		out = append(out, ix.ends.ids[off:off+n]...)
	}
	return out, nil
}

// Link resolves a path to its link, nil when it has none (match.Layout).
func (ix *Index) Link(p pathenc.PathID) *match.Link { return ix.links[p] }

// LoadDocuments returns the retained corpus (match.Layout).
func (ix *Index) LoadDocuments() ([]*xmltree.Document, error) { return ix.docs, nil }

// QueryOptions tweaks one query execution. The definition lives in
// internal/engine (the engine-agnostic query contract); the alias keeps
// index.QueryOptions as the spelling throughout this package and its
// callers.
type QueryOptions = engine.QueryOptions

// QueryStats reports the work one query performed — the observable
// counterpart of Algorithm 1's steps. Aliased from internal/engine; see
// QueryOptions.
type QueryStats = engine.QueryStats

// Shards reports per-partition statistics; a monolithic index has none.
func (ix *Index) Shards() []engine.ShardStat { return nil }

// Generation identifies the index's corpus snapshot. A frozen index never
// changes after build/load, so the generation is constant.
func (ix *Index) Generation() uint64 { return 0 }

var _ engine.Engine = (*Index)(nil)

// Query answers a tree-pattern query, returning matching document ids in
// ascending order. The semantics are designator-level: two values in the
// same hash bucket are indistinguishable (use QueryOptions.Verify for exact
// value semantics).
func (ix *Index) Query(pat *query.Pattern) ([]int32, error) {
	return ix.QueryWith(pat, QueryOptions{})
}

// QueryWith is Query with options. It is QueryWithContext with
// context.Background().
func (ix *Index) QueryWith(pat *query.Pattern, qo QueryOptions) ([]int32, error) {
	return ix.QueryWithContext(context.Background(), pat, qo)
}

// QueryContext is Query honouring ctx; see QueryWithContext.
func (ix *Index) QueryContext(ctx context.Context, pat *query.Pattern) ([]int32, error) {
	return ix.QueryWithContext(ctx, pat, QueryOptions{})
}

// QueryWithContext is QueryWith honouring ctx; see match.Engine.Query for
// the pipeline and the cancellation contract.
func (ix *Index) QueryWithContext(ctx context.Context, pat *query.Pattern, qo QueryOptions) ([]int32, error) {
	if ix.prio == nil {
		return nil, fmt.Errorf("index: strategy %q has no priority; constraint matching requires a prioritized strategy such as g_best", ix.strategy.Name())
	}
	return ix.eng.Query(ctx, pat, qo)
}
