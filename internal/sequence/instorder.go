package sequence

import (
	"math"
	"slices"

	"xseq/internal/pathenc"
)

// This file orders *query instances* — trees of path-encoded nodes that are
// not backed by an xmltree (wildcards already instantiated, descendant steps
// collapsed) — under the same f2 sequencing discipline used for documents:
// highest priority first among nodes whose parent is emitted, and the whole
// subtree of a node with identical-path siblings emitted contiguously before
// any of its identical siblings. Data and query sequenced by the same
// priority are order-compatible, which is what lets Algorithm 1 match them
// by one linear pass.

// Prioritizer ranks interned paths: higher priorities sequence earlier,
// and a path blocks when the data-side sequencer emits its subtrees as
// contiguous blocks (the paths that may repeat). Query instances get the
// same blocking, keeping query order compatible with data order. The
// probability strategy implements it (p'(C|root) and its schema's rule).
type Prioritizer interface {
	Rank(p pathenc.PathID) (prio float64, blocks bool)
}

// Plan is a query instance's f2 sequence with the order of its
// identical-sibling groups left open: the paper's false-dismissal remedy
// (§3, Fig 5) without materialising the permuted queries. Members of a
// group share a path and a priority and each blocks its subtree, so every
// f2 sequence of the instance emits a group as consecutive member blocks;
// only their relative order is free. A group is one slot of ops: a head
// holding the members' common path, then each member's block without its
// head, each closed by an end op. Nested groups are nested slots; a plan
// without groups is the instance's one sequence.
//
// A sequence is read off the plan by choosing, at a group's head, a member
// not chosen yet and going on with its block; its end op returns to the
// head while members remain, else goes on past the group. Members with
// isomorphic subtrees share a class, and choosing among one class gives one
// sequence.
type Plan struct {
	Ops    []PlanOp
	Groups []PlanGroup
	// Members holds, by group, the op where each member's block goes on
	// after the head, and Classes each member's class.
	Members, Classes []int32
	// Len is the length of every sequence: the instance's node count.
	Len int
	// Orders is the number of distinct sequences the plan admits,
	// saturating at math.MaxInt32.
	Orders int

	// Build's inputs and working set.
	paths        []pathenc.PathID
	parents      []int
	kidOff, kids []int32 // children in index order; node n is the virtual root
	lead         []int32 // first member of the node's group, -1 outside groups
	rank         []pathRank
	cand         []int32 // candidate lists of the open blocks, as a stack
}

// pathRank is a node's Prioritizer answer.
type pathRank struct {
	prio   float64
	blocks bool
}

// PlanOp is one step of a plan: a plain element (Group -1), group Group's
// head, or with End set the end of one of its member blocks.
type PlanOp struct {
	Path  pathenc.PathID
	Group int32
	End   bool
}

// PlanGroup is one identical-sibling slot: Head is its head op and Next the
// op after its last end op; Members[Off:Off+N] are its members.
type PlanGroup struct {
	Head, Next int32
	Off, N     int32
}

// Build fills pl with the plan of a query instance (paths/parents arrays,
// parent -1 for the root) under prio, reusing pl's buffers. Candidates tie
// on (priority, path, index), as documents tie on document order.
func (pl *Plan) Build(paths []pathenc.PathID, parents []int, prio Prioritizer) {
	n := len(paths)
	pl.Ops, pl.Groups, pl.Members, pl.Classes = pl.Ops[:0], pl.Groups[:0], pl.Members[:0], pl.Classes[:0]
	pl.Len, pl.Orders = n, 1
	pl.paths, pl.parents = paths, parents
	defer func() { pl.paths, pl.parents = nil, nil }()
	// Children as one index-ordered array; roots hang off virtual node n.
	pl.kidOff = slices.Grow(pl.kidOff[:0], n+3)[:n+3]
	clear(pl.kidOff)
	for _, par := range parents {
		pl.kidOff[parentOf(par, n)+2]++
	}
	for v := 3; v < n+3; v++ {
		pl.kidOff[v] += pl.kidOff[v-1]
	}
	pl.kids = slices.Grow(pl.kids[:0], n)[:n]
	for i, par := range parents {
		v := parentOf(par, n) + 1
		pl.kids[pl.kidOff[v]] = int32(i)
		pl.kidOff[v]++
	}
	// Mark identical-path sibling groups by their first member with a
	// pairwise scan: sibling lists are query-sized, so the quadratic scan
	// beats a counting map. Roots never form a group.
	pl.lead = slices.Grow(pl.lead[:0], n)[:n]
	pl.rank = slices.Grow(pl.rank[:0], n)[:n]
	for i := range paths {
		pl.lead[i] = -1
		pl.rank[i].prio, pl.rank[i].blocks = prio.Rank(paths[i])
	}
	for v := 0; v < n; v++ {
		ch := pl.children(v)
		for a, ca := range ch {
			if pl.lead[ca] >= 0 {
				continue
			}
			for _, cb := range ch[a+1:] {
				if paths[ca] == paths[cb] {
					pl.lead[ca], pl.lead[cb] = ca, ca
				}
			}
		}
	}
	pl.cand = append(pl.cand[:0], pl.children(n)...)
	pl.emit(0)
}

func parentOf(par, n int) int {
	if par < 0 {
		return n
	}
	return par
}

func (pl *Plan) children(v int) []int32 { return pl.kids[pl.kidOff[v]:pl.kidOff[v+1]] }

// emit sequences the candidate list cand[base:] by priority under the f2
// discipline, appending ops. A blocking candidate emits its whole subtree
// before the next candidate is chosen; the first member of a group chosen
// emits the group's slot.
func (pl *Plan) emit(base int) {
	paths := pl.paths
	for len(pl.cand) > base {
		best := base
		for k := base + 1; k < len(pl.cand); k++ {
			if pl.better(pl.cand[k], pl.cand[best]) {
				best = k
			}
		}
		c := pl.cand[best]
		if pl.lead[c] >= 0 {
			pl.emitGroup(base, pl.lead[c])
			continue
		}
		pl.cand = slices.Delete(pl.cand, best, best+1)
		pl.Ops = append(pl.Ops, PlanOp{Path: paths[c], Group: -1})
		inner := len(pl.cand)
		pl.cand = append(pl.cand, pl.children(int(c))...)
		if pl.rank[c].blocks {
			pl.emit(inner)
		}
	}
}

func (pl *Plan) better(a, b int32) bool {
	paths := pl.paths
	if pa, pb := pl.rank[a].prio, pl.rank[b].prio; pa != pb {
		return pa > pb
	}
	if paths[a] != paths[b] {
		return paths[a] < paths[b]
	}
	return a < b
}

// emitGroup emits the slot of the group led by lead, whose members are all
// still in cand[base:], and multiplies Orders by the group's number of
// distinct member orders, k!/∏ c! for class sizes c.
func (pl *Plan) emitGroup(base int, lead int32) {
	paths := pl.paths
	kept := pl.cand[:base]
	for _, c := range pl.cand[base:] {
		if pl.lead[c] != lead {
			kept = append(kept, c)
		}
	}
	pl.cand = kept
	// Reserve the members' slots first: nested groups append theirs while
	// the members' blocks are emitted. A member's class is the first
	// earlier member it is isomorphic to, or itself.
	off := int32(len(pl.Members))
	members := pl.children(pl.parents[lead])
	for _, m := range members {
		if pl.lead[m] != lead {
			continue
		}
		class, same := m, 1
		for _, c := range pl.Classes[off:] {
			if c == class || class == m && pl.iso(c, m) {
				class, same = c, same+1
			}
		}
		pl.Members = append(pl.Members, 0)
		pl.Classes = append(pl.Classes, class)
		pl.Orders = min(pl.Orders*(len(pl.Members)-int(off))/same, math.MaxInt32)
	}
	g := int32(len(pl.Groups))
	pl.Groups = append(pl.Groups, PlanGroup{Head: int32(len(pl.Ops)), Off: off, N: int32(len(pl.Members)) - off})
	pl.Ops = append(pl.Ops, PlanOp{Path: paths[lead], Group: g})
	for _, m := range members {
		if pl.lead[m] != lead {
			continue
		}
		pl.Members[off] = int32(len(pl.Ops))
		off++
		inner := len(pl.cand)
		pl.cand = append(pl.cand, pl.children(int(m))...)
		pl.emit(inner)
		pl.Ops = append(pl.Ops, PlanOp{Path: paths[lead], Group: g, End: true})
	}
	pl.Groups[g].Next = int32(len(pl.Ops))
}

// iso reports whether the subtrees at a and b are isomorphic as unordered
// trees of paths, matching each child of a to an unmatched one of b; the
// unmatched children of b sit on the candidate stack.
func (pl *Plan) iso(a, b int32) bool {
	ka, kb := pl.children(int(a)), pl.children(int(b))
	if pl.paths[a] != pl.paths[b] || len(ka) != len(kb) {
		return false
	}
	base, end := len(pl.cand), len(pl.cand)+len(kb)
	pl.cand = append(pl.cand, kb...)
	defer func() { pl.cand = pl.cand[:base] }()
	for _, x := range ka {
		k := base
		for k < end && !pl.iso(x, pl.cand[k]) {
			k++
		}
		if k == end {
			return false
		}
		end--
		pl.cand[k], pl.cand[end] = pl.cand[end], pl.cand[k]
	}
	return true
}
