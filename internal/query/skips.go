package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xseq/internal/pathenc"
)

// A descendant step instantiates to a path that may skip levels: //e under
// r becomes r/a/e with the r/a between them implied. A document sequences
// e after its a, and inside a's block when r/a repeats, but an instance
// that leaves r/a out sequences e among r's other children by its own
// priority; and when another node of the instance has the path r/a, or
// another step implies it too, sequencing resolves both to one r/a element,
// demanding that they share one a. Either way a document that matches the
// pattern is dismissed. spellOut writes the implied nodes out, so every
// instance is a tree of child steps, and returns one forest per way the
// nodes of one path under one parent may share a document node: an
// implied node with any of them, a pattern node with one whose pattern
// parent differs (only children of one pattern node must match distinct
// nodes). Nodes kept apart are an identical-sibling group, matched
// injectively. A document matches the pattern exactly when it matches one
// of the forests.

// skips reports whether a node of forest, under a node of path pp, skips a
// level. It allocates nothing.
func skips(enc *pathenc.Encoder, pp pathenc.PathID, forest []instTree) bool {
	for _, t := range forest {
		if enc.Depth(t.path) > enc.Depth(pp)+1 || skips(enc, t.path, t.children) {
			return true
		}
	}
	return false
}

// snode is an instance node being spelled out. origin identifies the
// pattern parent of a node a pattern step names, and is -1 for an implied
// node; id identifies the node as the origin of its children.
type snode struct {
	path       pathenc.PathID
	id, origin int
	kids       []*snode
}

// spellOut returns the forests the instance's children under root stand
// for, and false when there are more than limit readings to try.
func spellOut(enc *pathenc.Encoder, root pathenc.PathID, forest []instTree, limit int) ([][]instTree, bool) {
	ids := 0
	var build func(pp pathenc.PathID, origin int, ts []instTree) []*snode
	build = func(pp pathenc.PathID, origin int, ts []instTree) []*snode {
		out := make([]*snode, len(ts))
		for i, t := range ts {
			ids++
			n := &snode{path: t.path, id: ids, origin: origin}
			n.kids = build(t.path, n.id, t.children)
			for ip := enc.Parent(t.path); enc.Depth(ip) > enc.Depth(pp); ip = enc.Parent(ip) {
				n = &snode{path: ip, origin: -1, kids: []*snode{n}}
			}
			out[i] = n
		}
		return out
	}
	var toTrees func(ns []*snode) []instTree
	toTrees = func(ns []*snode) []instTree {
		out := make([]instTree, len(ns))
		for i, n := range ns {
			out[i] = instTree{path: n.path, children: toTrees(n.kids)}
		}
		return out
	}
	readings, ok := resolve(build(root, 0, forest), limit)
	if !ok {
		return nil, false
	}
	out := make([][]instTree, len(readings))
	for i, kids := range readings {
		out[i] = toTrees(kids)
	}
	return out, true
}

// resolve returns the ways of reading a sibling list: partitions of it into
// blocks of one path that hold at most one node of each origin, every block
// one node over its members' children, which are read in turn. Partitions
// that differ only by interchanging nodes of one class (see classes) read
// alike, so it keeps one of them: k //e steps over r/a/e give one reading
// per integer partition of k, not one per set partition. Other partitions
// may still read alike. It returns false when there are more than limit
// partitions or readings, rather than some of them.
func resolve(kids []*snode, limit int) ([][]*snode, bool) {
	parts := [][][]*snode{{}}
	if !sharesPath(kids) {
		for _, k := range kids {
			parts[0] = append(parts[0], []*snode{k})
		}
		kids = nil
	}
	class := classes(kids)
	for _, v := range kids {
		var next [][][]*snode
		var seen map[string]bool
		if class != nil {
			seen = map[string]bool{}
		}
		keep := func(p [][]*snode) {
			if seen != nil {
				k := partKey(p, class)
				if seen[k] {
					return
				}
				seen[k] = true
			}
			next = append(next, p)
		}
		for _, p := range parts {
			keep(append(slices.Clone(p), []*snode{v}))
			for i, b := range p {
				if b[0].path == v.path && (v.origin < 0 || !slices.ContainsFunc(b, func(n *snode) bool { return n.origin == v.origin })) {
					q := slices.Clone(p)
					q[i] = append(slices.Clone(b), v)
					keep(q)
				}
			}
			if len(next) > limit {
				return nil, false
			}
		}
		parts = next
	}
	var out [][]*snode
	for _, p := range parts {
		combos := [][]*snode{{}}
		for _, b := range p {
			var merged []*snode
			for _, n := range b {
				merged = append(merged, n.kids...)
			}
			subs, ok := resolve(merged, limit)
			if !ok || len(subs)*len(combos) > limit {
				return nil, false
			}
			var next [][]*snode
			for _, sub := range subs {
				m := &snode{path: b[0].path, kids: sub}
				for _, c := range combos {
					next = append(next, append(slices.Clone(c), m))
				}
			}
			combos = next
		}
		if out = append(out, combos...); len(out) > limit {
			return nil, false
		}
	}
	return out, true
}

// classes numbers kids so that two share a number exactly when one may
// stand in for the other, its subtree mapped onto the other's, in every
// partition: they have one shape. It returns nil, allocating nothing,
// when no partitions can be alike: no two kids share a path and an
// origin, or no two may share a block.
func classes(kids []*snode) map[*snode]int {
	anyPair := func(f func(k, o *snode) bool) bool {
		for i, k := range kids {
			for _, o := range kids[i+1:] {
				if k.path == o.path && f(k, o) {
					return true
				}
			}
		}
		return false
	}
	if !anyPair(func(k, o *snode) bool { return k.origin == o.origin }) ||
		!anyPair(func(k, o *snode) bool { return k.origin < 0 || k.origin != o.origin }) {
		return nil
	}
	class := make(map[*snode]int, len(kids))
	first := map[string]int{}
	for i, k := range kids {
		s := string(shape(nil, k, -1))
		if _, ok := first[s]; !ok {
			first[s] = i
		}
		class[k] = first[s]
	}
	return class
}

// shape appends to b a key of n's subtree: its path, its origin, and its
// children's shapes in sorted order. An origin is written as the node's
// own when it is anc, the nearest pattern node above n inside the subtree
// (a pattern node's id is private to it), and as itself otherwise.
func shape(b []byte, n *snode, anc int) []byte {
	b = strconv.AppendInt(b, int64(n.path), 10)
	switch {
	case n.origin < 0:
		b = append(b, 'i')
	case n.origin == anc:
		b = append(b, 'p')
	default:
		b = strconv.AppendInt(append(b, 'o'), int64(n.origin), 10)
	}
	if n.origin >= 0 {
		anc = n.id
	}
	kids := make([]string, len(n.kids))
	for i, k := range n.kids {
		kids[i] = string(shape(nil, k, anc))
	}
	slices.Sort(kids)
	b = append(b, '(')
	for _, k := range kids {
		b = append(append(b, k...), ',')
	}
	return append(b, ')')
}

// partKey is a key two partitions share when they differ only by
// interchanging nodes of one class: the sorted list of their blocks'
// sorted class lists.
func partKey(p [][]*snode, class map[*snode]int) string {
	blocks := make([]string, len(p))
	for i, b := range p {
		cs := make([]int, len(b))
		for j, n := range b {
			cs[j] = class[n]
		}
		slices.Sort(cs)
		blocks[i] = fmt.Sprint(cs)
	}
	slices.Sort(blocks)
	return strings.Join(blocks, "")
}

// sharesPath reports whether two of kids have one path.
func sharesPath(kids []*snode) bool {
	for i, k := range kids {
		for _, o := range kids[i+1:] {
			if k.path == o.path {
				return true
			}
		}
	}
	return false
}
