package sequence

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
)

// Strategy turns a tree into one constraint sequence. All strategies
// produced by this package generate sequences valid under constraint f2,
// emitting every ancestor before its descendants and emitting the whole
// subtree of a node with identical siblings contiguously before any of its
// identical siblings (the procedure of Section 2.4 / Algorithm 2).
type Strategy interface {
	// Name identifies the strategy ("depth-first", "constraint", ...).
	Name() string
	// Sequence produces a constraint sequence for the tree, interning any
	// new paths into the strategy's encoder.
	Sequence(root *xmltree.Node) Sequence
}

// priorityFn scores an encoded node; higher scores are emitted earlier,
// subject to the constraint. Ties break on (PathID, document order). It
// also says whether the node blocks beyond the f2 requirement that every
// node with identical siblings does (Section 2.4): g_best blocks every path
// its schema lets repeat, so data and query sequences stay order-compatible.
type priorityFn func(n *EncodedNode, idx int) (prio float64, blocks bool)

// candidate is a heap item.
type candidate struct {
	idx    int // index into the EncodedNode slice
	prio   float64
	path   pathenc.PathID
	order  int // document pre-order position, the final tie-break
	blocks bool
}

type candidateHeap []candidate

func (h candidateHeap) Len() int { return len(h) }
func (h candidateHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	if h[i].path != h[j].path {
		return h[i].path < h[j].path
	}
	return h[i].order < h[j].order
}
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// sequenceWithPriority implements the generic constraint sequencer
// (Algorithm 2 generalized to an arbitrary priority). It repeatedly emits
// the highest-priority node whose parent has been emitted; when the emitted
// node blocks (it has identical siblings, or its path may repeat),
// its entire subtree is emitted contiguously (recursively by the same
// priority) before the main loop resumes, which guarantees that none of its
// identical siblings starts before the subtree is complete — the f2
// sequencing procedure of Section 2.4.
func sequenceWithPriority(nodes []EncodedNode, prio priorityFn) Sequence {
	out := make(Sequence, 0, len(nodes))
	h := &candidateHeap{}

	cand := func(idx int) candidate {
		pr, blocks := prio(&nodes[idx], idx)
		blocks = blocks || nodes[idx].HasIdenticalSibling
		return candidate{idx: idx, prio: pr, path: nodes[idx].Path, order: idx, blocks: blocks}
	}

	// emitSubtree emits idx and its whole subtree contiguously, ordered by
	// priority within the subtree (its own nested identical siblings
	// handled by the same rule, which holds trivially since the entire
	// subtree is contiguous and inner subtrees are emitted by the same
	// recursive discipline through the local heap).
	var emitSubtree func(idx int)
	emitSubtree = func(idx int) {
		out = append(out, nodes[idx].Path)
		local := &candidateHeap{}
		for _, c := range nodes[idx].Children {
			heap.Push(local, cand(c))
		}
		for local.Len() > 0 {
			it := heap.Pop(local).(candidate)
			if it.blocks {
				emitSubtree(it.idx)
				continue
			}
			out = append(out, nodes[it.idx].Path)
			for _, c := range nodes[it.idx].Children {
				heap.Push(local, cand(c))
			}
		}
	}

	// Root is index 0 (EncodeNodes is pre-order).
	out = append(out, nodes[0].Path)
	for _, c := range nodes[0].Children {
		heap.Push(h, cand(c))
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(candidate)
		if it.blocks {
			emitSubtree(it.idx)
			continue
		}
		out = append(out, nodes[it.idx].Path)
		for _, c := range nodes[it.idx].Children {
			heap.Push(h, cand(c))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Depth-first
// ---------------------------------------------------------------------------

// DepthFirst is the ad hoc depth-first (pre-order) strategy used by ViST.
type DepthFirst struct {
	Enc *pathenc.Encoder
}

// Name implements Strategy.
func (DepthFirst) Name() string { return "depth-first" }

// Sequence implements Strategy.
func (s DepthFirst) Sequence(root *xmltree.Node) Sequence {
	return DepthFirstSequence(root, s.Enc)
}

// ---------------------------------------------------------------------------
// Breadth-first
// ---------------------------------------------------------------------------

// BreadthFirst emits shallower nodes first. Plain breadth-first order
// violates constraint f2 in the presence of identical siblings (a second
// identical sibling would start before the first one's subtree completes),
// so like every strategy here it falls back to contiguous subtree emission
// for identical-sibling nodes; with no identical siblings it is exact BFS.
type BreadthFirst struct {
	Enc *pathenc.Encoder
}

// Name implements Strategy.
func (BreadthFirst) Name() string { return "breadth-first" }

// Sequence implements Strategy.
func (s BreadthFirst) Sequence(root *xmltree.Node) Sequence {
	nodes := EncodeNodes(root, s.Enc)
	return sequenceWithPriority(nodes, func(n *EncodedNode, idx int) (float64, bool) {
		return -float64(s.Enc.Depth(n.Path)), false
	})
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

// Random assigns each node an independent random priority, producing an
// arbitrary constraint sequence — the worst case for prefix sharing
// (Section 6.2's "random" curve). Deterministic per (Seed, call order).
type Random struct {
	Enc *pathenc.Encoder
	rng *rand.Rand
}

// NewRandom builds a Random strategy with its own deterministic stream.
func NewRandom(enc *pathenc.Encoder, seed int64) *Random {
	return &Random{Enc: enc, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (*Random) Name() string { return "random" }

// Sequence implements Strategy.
func (s *Random) Sequence(root *xmltree.Node) Sequence {
	nodes := EncodeNodes(root, s.Enc)
	prios := make([]float64, len(nodes))
	for i := range prios {
		prios[i] = s.rng.Float64()
	}
	return sequenceWithPriority(nodes, func(n *EncodedNode, idx int) (float64, bool) {
		return prios[idx], false
	})
}

// ---------------------------------------------------------------------------
// Probability-based constraint sequencing (g_best)
// ---------------------------------------------------------------------------

// RepeatAware was implemented by strategies told which paths repeat in the
// corpus. None is now, as g_best's schema decides (schema.Model); the
// benchmark module's build trace still compiles against it.
type RepeatAware interface {
	SetRepeatPaths(repeat map[pathenc.PathID]bool)
}

// NewByName was the registry of named strategies. Only g_best is left, by
// the name "": it applies weights (ApplyWeights) and returns NewProbability.
// The benchmark module's build trace still compiles against it.
func NewByName(name string, sch *schema.Schema, enc *pathenc.Encoder, weights map[string]float64, skipUnknown bool) (Strategy, error) {
	if name != "" {
		return nil, fmt.Errorf("sequence: unknown strategy %q (g_best, named \"\", is the only one)", name)
	}
	if err := ApplyWeights(sch, weights, skipUnknown); err != nil {
		return nil, err
	}
	return NewProbability(sch, enc), nil
}

// RepeatPaths scans a corpus and returns every path that occurs as
// identical siblings in at least one document: the reference the schema's
// blocking rule is tested against, and called by the benchmark module.
func RepeatPaths(roots []*xmltree.Node, enc *pathenc.Encoder) map[pathenc.PathID]bool {
	out := map[pathenc.PathID]bool{}
	for _, r := range roots {
		for _, n := range EncodeNodes(r, enc) {
			if n.HasIdenticalSibling {
				out[n.Path] = true
			}
		}
	}
	return out
}

// Probability is g_best of Section 5: nodes are ordered by descending
// p'(C|root) = p(C|root) · w(C) from a schema model, maximizing prefix
// sharing across documents of the same schema and honoring tunable weights.
// Paths the schema lets repeat block, in data and query sequences alike,
// which keeps them order-compatible: without it, a low-priority node
// inside a data-side identical-sibling block would appear earlier in the
// data sequence than global priority predicts, dismissing valid matches.
type Probability struct {
	Enc   *pathenc.Encoder
	Model *schema.Model
	// PerInstanceBlocking reverts to the paper's literal Algorithm 2:
	// only nodes with identical siblings in the CURRENT document emit
	// contiguous blocks, ignoring what the schema lets repeat. Sequences
	// get more ordering freedom (smaller indexes — the paper's Table 5
	// ratios), but on corpora where a path repeats in some documents and
	// not others, query order compatibility breaks and valid matches can
	// be dismissed. Kept for the ablation that quantifies the trade-off;
	// leave false for correct querying.
	PerInstanceBlocking bool
}

// ApplyWeights writes a weight vector — slash-separated root-anchored
// element name paths to w(C) of Eq 6 — into sch. Call it before
// NewProbability: Models memoize priorities. The weights live in the schema,
// so a snapshot persists them and a reloaded index computes the same
// priorities. A path sch has no node for is skipped when skipUnknown is set
// and an error otherwise.
func ApplyWeights(sch *schema.Schema, weights map[string]float64, skipUnknown bool) error {
	for path, w := range weights {
		names := strings.Split(strings.Trim(path, "/"), "/")
		if err := sch.SetWeightByNamePath(names, w); err != nil && !skipUnknown {
			return fmt.Errorf("weight %q: %w", path, err)
		}
	}
	return nil
}

// NewProbability binds g_best to a schema and encoder.
func NewProbability(s *schema.Schema, enc *pathenc.Encoder) *Probability {
	return &Probability{Enc: enc, Model: schema.NewModel(s, enc)}
}

// Name implements Strategy.
func (*Probability) Name() string { return "constraint" }

// Blocks reports whether a path's subtree is emitted contiguously.
func (s *Probability) Blocks(p pathenc.PathID) bool {
	_, blocks := s.Rank(p)
	return blocks
}

// Rank implements Prioritizer.
func (s *Probability) Rank(p pathenc.PathID) (prio float64, blocks bool) {
	prio, blocks = s.Model.Rank(p)
	return prio, blocks && !s.PerInstanceBlocking
}

// Sequence implements Strategy.
func (s *Probability) Sequence(root *xmltree.Node) Sequence {
	nodes := EncodeNodes(root, s.Enc)
	return sequenceWithPriority(nodes, func(n *EncodedNode, idx int) (float64, bool) {
		return s.Rank(n.Path)
	})
}
