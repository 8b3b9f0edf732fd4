// Package sequence implements the heart of the paper: constraint sequences
// (Section 2), the sequencing strategies they admit (Sections 2.4 and 5),
// and Prüfer codes (the PRIX-style alternative encoding).
//
// A sequence is a list of path-encoded nodes ([]pathenc.PathID). Constraint
// f1 (Eq 2, plain prefix) suffices when a tree has no identical sibling
// nodes; constraint f2 (Eq 3, the forward-prefix rule of Definition 2)
// restores a unique tree for any sequence even with identical siblings
// (Theorem 1). Within a constraint, a user strategy g orders the nodes —
// depth-first, breadth-first, random, or the performance-oriented
// probability strategy g_best of Section 5. g_best also emits the subtree
// of every path its schema lets repeat contiguously (schema.Model), in
// data and query sequences alike, so the two stay order-compatible
// without a pass over the corpus.
package sequence

import (
	"fmt"
	"strings"

	"xseq/internal/pathenc"
	"xseq/internal/xmltree"
)

// Sequence is a constraint sequence of path-encoded nodes.
type Sequence []pathenc.PathID

// String renders the sequence in the paper's angle-bracket notation.
func (s Sequence) String(enc *pathenc.Encoder) string {
	parts := make([]string, len(s))
	for i, p := range s {
		parts[i] = enc.PathString(p)
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Equal reports element-wise equality.
func Equal(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Key returns a comparable string key (for dedup in enumeration).
func (s Sequence) Key() string {
	var b strings.Builder
	for _, p := range s {
		fmt.Fprintf(&b, "%d,", p)
	}
	return b.String()
}

// IsSubsequence reports whether q is a (non-contiguous) subsequence of d —
// the naive subsequence match of Section 3.1, which admits false alarms.
func IsSubsequence(q, d Sequence) bool {
	i := 0
	for _, x := range d {
		if i < len(q) && q[i] == x {
			i++
		}
	}
	return i == len(q)
}

// ---------------------------------------------------------------------------
// Path encoding of whole trees
// ---------------------------------------------------------------------------

// EncodedNode is one tree node with its interned path and the structural
// facts sequencing needs.
type EncodedNode struct {
	Path pathenc.PathID
	Node *xmltree.Node
	// Parent is the index of the parent EncodedNode (-1 for the root).
	Parent int
	// Children are indices of the children, in document order.
	Children []int
	// HasIdenticalSibling reports whether another sibling shares this
	// node's path encoding — the condition that forces constraint f2.
	HasIdenticalSibling bool
}

// EncodeNodes path-encodes the tree in pre-order. Element and attribute
// nodes extend the parent path by their element designator; value leaves by
// their atomic value designator — or, for a text-values encoder (the second
// representation of Section 2.1), by a chain of character designators, one
// encoded node per character, enabling prefix matching inside values.
func EncodeNodes(root *xmltree.Node, enc *pathenc.Encoder) []EncodedNode {
	var out []EncodedNode
	var walk func(n *xmltree.Node, parentIdx int, parentPath pathenc.PathID)
	walk = func(n *xmltree.Node, parentIdx int, parentPath pathenc.PathID) {
		attach := func(idx int) {
			if out[idx].Parent >= 0 {
				par := out[idx].Parent
				out[par].Children = append(out[par].Children, idx)
			}
		}
		if n.IsValue && enc.TextValues() && len(n.Value) > 0 {
			p := parentPath
			parIdx := parentIdx
			for _, sym := range enc.CharSymbols(n.Value) {
				p = enc.Extend(p, sym)
				idx := len(out)
				out = append(out, EncodedNode{Path: p, Node: n, Parent: parIdx})
				attach(idx)
				parIdx = idx
			}
			return // value leaves have no children
		}
		var sym pathenc.Symbol
		if n.IsValue {
			sym = enc.ValueSymbol(n.Value)
		} else {
			sym = enc.ElementSymbol(n.Name)
		}
		p := enc.Extend(parentPath, sym)
		idx := len(out)
		out = append(out, EncodedNode{Path: p, Node: n, Parent: parentIdx})
		attach(idx)
		for _, c := range n.Children {
			walk(c, idx, p)
		}
	}
	walk(root, -1, pathenc.EmptyPath)

	// Mark identical siblings: children of one parent sharing a path.
	for i := range out {
		kids := out[i].Children
		seen := map[pathenc.PathID]int{}
		for _, k := range kids {
			seen[out[k].Path]++
		}
		for _, k := range kids {
			if seen[out[k].Path] > 1 {
				out[k].HasIdenticalSibling = true
			}
		}
	}
	return out
}

// HasIdenticalSiblings reports whether the tree contains any identical
// sibling nodes — i.e. whether constraint f1 (set representation) is
// insufficient and f2 must be used.
func HasIdenticalSiblings(root *xmltree.Node, enc *pathenc.Encoder) bool {
	nodes := EncodeNodes(root, enc)
	for i := range nodes {
		if nodes[i].HasIdenticalSibling {
			return true
		}
	}
	return false
}

// PathMultiset returns the multiset of path-encoded nodes (the "set
// representation" of Section 2.2 that is ambiguous exactly when identical
// siblings exist).
func PathMultiset(root *xmltree.Node, enc *pathenc.Encoder) map[pathenc.PathID]int {
	m := map[pathenc.PathID]int{}
	for _, n := range EncodeNodes(root, enc) {
		m[n.Path]++
	}
	return m
}

// CanonicalizeValues rebuilds the tree in the encoder's value
// representation: with atomic values, each value leaf's text becomes the
// name of its designator ("boston" -> "v417"; hashing is lossy, so round
// trips are compared on canonicalized trees); with text values, each
// non-empty value leaf becomes a chain of one-character value nodes, the
// shape Decode produces for character designators.
func CanonicalizeValues(root *xmltree.Node, enc *pathenc.Encoder) *xmltree.Node {
	var rebuild func(n *xmltree.Node) *xmltree.Node
	rebuild = func(n *xmltree.Node) *xmltree.Node {
		if n.IsValue {
			if enc.TextValues() && len(n.Value) > 0 {
				var head, tail *xmltree.Node
				for _, sym := range enc.CharSymbols(n.Value) {
					c := xmltree.NewValue(enc.SymbolName(sym))
					if head == nil {
						head = c
					} else {
						tail.Children = append(tail.Children, c)
					}
					tail = c
				}
				return head
			}
			return xmltree.NewValue(enc.SymbolName(enc.ValueSymbol(n.Value)))
		}
		cp := xmltree.NewElem(n.Name)
		for _, c := range n.Children {
			cp.Children = append(cp.Children, rebuild(c))
		}
		return cp
	}
	return rebuild(root)
}
