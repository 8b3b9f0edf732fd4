// Package index builds the paper's index structure (Section 4.1):
//
//   - Sequence Insertion: each document's constraint sequence goes into a
//     trie; document ids accumulate at end nodes.
//   - Tree Labeling: trie nodes get (n⊢, n⊣) interval labels. The trie
//     sorts the sequences and creates its nodes in pre-order, so the
//     labels are creation order (internal/trie).
//   - Path Linking: one horizontal link per distinct path, holding the
//     labels of all trie nodes with that path encoding, in ascending n⊢
//     order, binary searchable (Figures 8/9).
//
// This package sequences the corpus into a trie in one pass over the
// documents (the strategy's schema, not a scan, decides which paths
// block), and the trie's Freeze does the first two steps; flat.Build does
// Path Linking, laying the labels, links and doc-id lists out in the one
// frozen representation, XSEQFLAT, which internal/flat's Algorithm 1
// queries in place. An Index is therefore a
// flat.Index, whether built here or loaded from a snapshot.
package index

import (
	"context"
	"fmt"
	"io"

	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

// Index is a built or loaded, immutable sequence index over a corpus.
type Index = flat.Index

// CorruptError reports a snapshot that failed validation: truncated,
// bit-flipped, checksum mismatch, undecodable, or structurally
// inconsistent. Use errors.As to detect it. The definition lives in
// internal/flat, whose queries report corrupt bytes met at query time the
// same way.
type CorruptError = flat.CorruptError

// QueryOptions tweaks one query execution. It is defined in
// internal/engine, the engine-agnostic query contract.
type QueryOptions = engine.QueryOptions

// Options configures Build.
type Options struct {
	// Encoder interns designators and paths; required, and must be the
	// encoder the Strategy was built with.
	Encoder *pathenc.Encoder
	// Strategy sequences documents. For querying it must also implement
	// sequence.Prioritizer (the probability strategy g_best does); index
	// building alone works with any strategy.
	Strategy sequence.Strategy
	// InstantiationLimit caps wildcard expansion per pattern
	// (<= 0: query.DefaultInstantiationLimit); a pattern over it fails with
	// a *query.TooBroadError.
	InstantiationLimit int
	// KeepDocuments retains the corpus for the verified query modes and
	// baselines that post-process candidates.
	KeepDocuments bool
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
	h := flat.Head{
		Enc:                opts.Encoder,
		Strategy:           opts.Strategy,
		NumDocs:            len(docs),
		InstantiationLimit: opts.InstantiationLimit,
	}
	if opts.KeepDocuments {
		h.Docs = docs
	}
	tr := trie.New()
	seen := map[int32]bool{}
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
		h.MaxDocID = max(h.MaxDocID, d.ID)
		tr.Insert(opts.Strategy.Sequence(d.Root), d.ID)
	}
	return flat.Build(tr, h), nil
}

// Load reads a snapshot stream into memory and opens it with full
// verification: every checksum and the structural invariants. Any damage —
// a stream that is not XSEQFLAT, truncation, bit flips, inconsistent
// structure — is reported as a *CorruptError.
func Load(r io.Reader) (*Index, error) {
	return flat.Open(r, flat.Options{Verify: true})
}

// LoadFile is Load from a file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	return flat.OpenFile(path, flat.Options{NoMmap: true, Verify: true})
}
