// Package trie implements the trie-like index tree of Section 4.1: document
// constraint sequences become root-to-leaf chains (Figure 7), document ids
// accumulate at each sequence's end node, and every node carries the
// (n⊢, n⊣) interval label of the paper's Tree Labeling step (pre-order
// serial number and largest descendant serial), so that x is a descendant
// of y iff x⊢ ∈ (y⊢, y⊣].
//
// Insert only records a sequence; Freeze sorts the sequences and creates
// the nodes in one pass. Sequences in sorted order meet the trie's nodes in
// pre-order (children by ascending PathID), so a node's id is its n⊢, its
// n⊣ is the last id created before it leaves the prefix stack, and the ids
// of one end node are one run of the sorted id array. The node store is two
// arrays, path and n⊣, indexed by id.
package trie

import (
	"cmp"
	"slices"

	"xseq/internal/pathenc"
	"xseq/internal/sequence"
)

// NodeID identifies a trie node and is also its n⊢; the root is always 0.
type NodeID int32

// Root is the id of the virtual root node (path ε).
const Root NodeID = 0

// Trie is the index tree. Build with Insert, then Freeze to create the
// labelled nodes; the node accessors require a frozen trie. Not safe for
// concurrent mutation.
type Trie struct {
	// seqs and ids are the inserted sequences, dropped by Freeze.
	seqs   []sequence.Sequence
	ids    []int32
	frozen bool

	path []pathenc.PathID // by node id
	max  []int32          // n⊣ by node id
	// ends are the end nodes, ascending; the documents ending at ends[i]
	// are docs[endOff[i]:endOff[i+1]].
	ends   []NodeID
	endOff []int32
	docs   []int32
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Insert records one document's constraint sequence, whose end node gets
// docID in its id list (Figure 7). The sequence is retained until Freeze.
// Insert panics on a frozen trie.
func (t *Trie) Insert(seq sequence.Sequence, docID int32) {
	if t.frozen {
		panic("trie: Insert after Freeze")
	}
	t.seqs = append(t.seqs, seq)
	t.ids = append(t.ids, docID)
}

// Freeze creates the nodes and their labels; afterwards the trie is
// immutable. The sequences are sorted (equal ones keep their insertion
// order), and each one creates the nodes past its longest common prefix
// with the previous one, in pre-order. A stack holds the chain of the
// previous sequence; a node popped off it has seen all its descendants
// created, so its n⊣ is the last id so far.
func (t *Trie) Freeze() {
	if t.frozen {
		return
	}
	t.frozen = true
	order := make([]int32, len(t.seqs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(slices.Compare(t.seqs[a], t.seqs[b]), cmp.Compare(a, b))
	})
	t.path, t.max = []pathenc.PathID{pathenc.EmptyPath}, []int32{0}
	t.docs = make([]int32, 0, len(order))
	stack := []NodeID{Root}
	var prev sequence.Sequence
	for _, i := range order {
		s := t.seqs[i]
		lcp := 0
		for lcp < len(s) && lcp < len(prev) && s[lcp] == prev[lcp] {
			lcp++
		}
		stack = t.popTo(stack, lcp+1)
		for _, p := range s[lcp:] {
			stack = append(stack, NodeID(len(t.path)))
			t.path = append(t.path, p)
			t.max = append(t.max, 0)
		}
		if end := stack[len(stack)-1]; len(t.ends) == 0 || t.ends[len(t.ends)-1] != end {
			t.ends = append(t.ends, end)
			t.endOff = append(t.endOff, int32(len(t.docs)))
		}
		t.docs = append(t.docs, t.ids[i])
		prev = s
	}
	t.popTo(stack, 0)
	t.endOff = append(t.endOff, int32(len(t.docs)))
	t.seqs, t.ids = nil, nil
}

// popTo pops the stack down to n nodes, labelling each popped node's n⊣.
func (t *Trie) popTo(stack []NodeID, n int) []NodeID {
	last := int32(len(t.path) - 1)
	for _, id := range stack[n:] {
		t.max[id] = last
	}
	return stack[:n]
}

// NumNodes reports the node count excluding the virtual root — the metric
// of Figure 14/15 and Tables 5/6. It freezes the trie.
func (t *Trie) NumNodes() int {
	t.Freeze()
	return len(t.path) - 1
}

// Path returns the path encoding of a node.
func (t *Trie) Path(n NodeID) pathenc.PathID { return t.path[n] }

// Max returns n⊣, the largest descendant serial.
func (t *Trie) Max(n NodeID) int32 { return t.max[n] }

// NumEnds reports how many nodes end at least one sequence.
func (t *Trie) NumEnds() int { return len(t.ends) }

// End returns the i-th end node in pre-order and the ids of the documents
// whose sequences end there, in insertion order.
func (t *Trie) End(i int) (NodeID, []int32) {
	return t.ends[i], t.docs[t.endOff[i]:t.endOff[i+1]]
}
