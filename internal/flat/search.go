package flat

import (
	"fmt"
	"slices"
	"sort"

	"xseq/internal/pathenc"
	"xseq/internal/sequence"
)

// This file implements Algorithm 1: constraint subsequence matching over the
// path links.
//
// A document's constraint sequence inserts as one root-to-leaf chain of the
// trie, so a subsequence match against a document visits trie nodes of
// strictly increasing depth along that chain: each query element is matched
// by a link entry nested inside the previous element's interval. The
// constraint test (Definition 3's second criterion) is enforced through the
// sibling-cover rule: whenever a matched entry "embeds identical siblings"
// (a later same-path entry is nested inside it), it is recorded in ins, and
// a later candidate whose relevant forward prefix would resolve to a
// *different* same-path entry is rejected (Theorem 3).
//
// Two refinements over the paper's pseudocode, both required for
// correctness on tries with branching (the paper's narration assumes the
// nested chain case):
//
//  1. ins keeps only the most recent matched entry per path — in an
//     f2-generated query sequence, later elements' forward prefixes always
//     resolve to the latest preceding occurrence of the prefix path, so
//     earlier group members impose no constraint once a newer one matched.
//  2. the cover test is evaluated as "the innermost same-path strict
//     ancestor of the candidate must be the recorded entry", instead of
//     Definition 4's "inside the (i+1)-th entry of the link", which is its
//     specialization to non-branching links.

// insEntry records a matched entry that embeds identical siblings (or
// shadows an older recorded entry of the same path).
type insEntry struct {
	link *Link
	path pathenc.PathID
	idx  int32 // entry index within link
}

func insHasPath(ins []insEntry, p pathenc.PathID) bool {
	for k := len(ins) - 1; k >= 0; k-- {
		if ins[k].path == p {
			return true
		}
	}
	return false
}

// searcher walks one instance's plan through the links. Its state lives in
// the pooled scratch, so the steady-state inner loop allocates nothing: the
// ins stack, and per identical-sibling group the members (perm, indexes
// into the plan's Members) with the first done[g] of them chosen on the
// current branch.
type searcher struct {
	ix    *Index
	pl    *sequence.Plan
	res   *resultSet
	naive bool
}

// search runs one instance's plan through the links, accumulating document
// ids of every terminal range into res. A plain element is matched as in
// Algorithm 1; at a group's head the descent branches over the members not
// yet chosen, so each complete branch is one of the plan's sequences and
// sequences that share a prefix share its probes. Corrupt bulk data met on
// the way latches into res.err and unwinds every level.
func (ix *Index) search(pl *sequence.Plan, naive bool, res *resultSet) {
	if pl.Len == 0 {
		return
	}
	scr := res.scr
	scr.ins, scr.perm, scr.done = scr.ins[:0], scr.perm[:0], scr.done[:0]
	for i := range pl.Members {
		scr.perm = append(scr.perm, int32(i))
	}
	for range pl.Groups {
		scr.done = append(scr.done, 0)
	}
	s := searcher{ix: ix, pl: pl, res: res, naive: naive}
	s.match(0, 0, 1, ix.meta.MaxSerial)
}

// match matches op pc, the d-th element of the sequence being read off the
// plan, by a link entry inside [lo, hi], and goes on from every entry that
// passes the sibling-cover test.
func (s *searcher) match(pc, d int, lo, hi int32) {
	ix, res, op := s.ix, s.res, s.pl.Ops[pc]
	scr := res.scr
	l := ix.Link(op.Path)
	if l.Len() == 0 {
		return
	}
	cnt, pg, last := res.cnt, res.pager, d == s.pl.Len-1
	// Binary search the first entry with pre >= lo (Figure 9's
	// "perform binary search in I to find nodes ∈ [vs, vm]").
	start := searchLink(l, lo, cnt, pg)
	for idx := start; idx < l.n && !res.full(); idx++ {
		pre := l.Pre(idx)
		if pre > hi {
			break
		}
		if res.cancelled() {
			return
		}
		if pg != nil {
			pg.touchLink(l, idx)
		}
		if cnt != nil {
			cnt.entriesScanned++
		}
		if !s.naive && ix.siblingCovered(op.Path, pre, scr.ins, res) {
			if res.err != nil {
				return
			}
			continue
		}
		max := l.Max(idx)
		if last {
			// "output the document id lists of node v and all nodes
			// under v".
			var err error
			if scr.docBuf, err = ix.collectDocs(pre, max, scr.docBuf[:0], pg); err != nil {
				res.err = err
				return
			}
			res.addAll(scr.docBuf)
			continue
		}
		saved := len(scr.ins)
		if !s.naive && (l.Embeds(idx) || insHasPath(scr.ins, op.Path)) {
			// Record entries that embed identical siblings (they
			// constrain later candidates), and any match whose path is
			// already recorded — the newer match shadows the older one,
			// because an f2 query sequence resolves later forward
			// prefixes to the most recent occurrence.
			scr.ins = append(scr.ins, insEntry{path: op.Path, link: l, idx: idx})
		}
		if op.Group < 0 {
			s.next(pc+1, d+1, pre+1, max)
		} else {
			s.choose(op.Group, d+1, pre+1, max)
		}
		scr.ins = scr.ins[:saved]
	}
}

// choose goes on from a match of group g's head into the block of each
// member not yet chosen on this branch, one member per class: members of
// one class have equal blocks, so any other choice repeats a sequence.
func (s *searcher) choose(g int32, d int, lo, hi int32) {
	grp := s.pl.Groups[g]
	done := s.res.scr.done
	mem, k := s.res.scr.perm[grp.Off:grp.Off+grp.N], done[g]
	done[g]++
	for j := k; j < grp.N && !s.res.full(); j++ {
		if slices.ContainsFunc(mem[k:j], func(t int32) bool { return s.pl.Classes[t] == s.pl.Classes[mem[j]] }) {
			continue // a member of this class was tried at this position
		}
		mem[k], mem[j] = mem[j], mem[k]
		s.next(int(s.pl.Members[mem[k]]), d, lo, hi)
		mem[k], mem[j] = mem[j], mem[k]
	}
	done[g]--
}

// next matches the element after the one just matched, which op pc or the
// end ops from pc on decide: the end of a member's block returns to its
// group's head while members remain, else goes on past the group.
func (s *searcher) next(pc, d int, lo, hi int32) {
	for op := s.pl.Ops[pc]; op.End; op = s.pl.Ops[pc] {
		g := s.pl.Groups[op.Group]
		if s.res.scr.done[op.Group] < g.N {
			pc = int(g.Head)
			break
		}
		pc = int(g.Next)
	}
	s.match(pc, d, lo, hi)
}

// searchLink binary searches l for the first entry with pre >= lo, charging
// one page touch per probe when paged.
func searchLink(l *Link, lo int32, cnt *counters, pg *queryPager) int32 {
	return int32(sort.Search(int(l.n), func(k int) bool {
		if pg != nil {
			pg.touchLink(l, int32(k))
		}
		if cnt != nil {
			cnt.linkProbes++
		}
		return l.Pre(int32(k)) >= lo
	}))
}

// siblingCovered reports whether a candidate entry with label pre (a match
// for the current query element, of path p) violates the constraint
// relative to any recorded ins entry: for each recorded (path px, entry x)
// where px is a strict prefix of the candidate's path, the innermost
// same-px strict ancestor of the candidate must be x itself; if a
// *different* same-px entry lies between them, the candidate's forward
// prefix would resolve there and the match would not be a constraint match.
// A corrupt anc chain latches res.err.
func (ix *Index) siblingCovered(p pathenc.PathID, pre int32, ins []insEntry, res *resultSet) bool {
	cnt := res.cnt
	for k := len(ins) - 1; k >= 0; k-- {
		x := ins[k]
		// Later entries shadow earlier ones per path (most recent wins):
		// a reverse scan over the entries already visited replaces a
		// per-candidate seen-map — ins is a small stack (bounded by query
		// depth), so the quadratic shadow check is cheaper than one map
		// allocation, let alone one per candidate.
		shadowed := false
		for j := k + 1; j < len(ins); j++ {
			if ins[j].path == x.path {
				shadowed = true
				break
			}
		}
		if shadowed {
			continue
		}
		if !ix.enc.IsStrictPrefix(x.path, p) {
			continue
		}
		if cnt != nil {
			cnt.coverChecks++
		}
		anc, err := innermostAncestor(x.link, pre, cnt, res.pager)
		if err != nil {
			res.err = err
			return true
		}
		if anc != x.idx {
			if cnt != nil {
				cnt.coverRejections++
			}
			return true
		}
	}
	return false
}

// innermostAncestor returns the index, within l, of the innermost entry
// that strictly contains serial pre (an entry with entry.pre < pre and
// entry.max >= pre), or -1. It binary searches the predecessor by pre and
// follows anc pointers until containment — every same-path ancestor of a
// serial is an ancestor of its link predecessor, so the anc chain visits
// them all. The chain may be raw mapped data, so each hop must strictly
// decrease: a forged pointer (cycle or out of range) is corruption, not an
// infinite loop.
func innermostAncestor(l *Link, pre int32, cnt *counters, pg *queryPager) (int32, error) {
	idx := searchLink(l, pre, cnt, pg) - 1
	for idx >= 0 {
		if pg != nil {
			pg.touchLink(l, idx)
		}
		if l.Max(idx) >= pre {
			return idx, nil
		}
		next := l.Anc(idx)
		if next >= idx {
			return 0, &CorruptError{Reason: fmt.Sprintf("link anc chain does not decrease (%d -> %d)", idx, next)}
		}
		idx = next
	}
	return -1, nil
}
