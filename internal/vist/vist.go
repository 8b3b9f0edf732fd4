// Package vist implements the ViST baseline (Wang, Park, Fan, Yu —
// SIGMOD 2003), the predecessor this paper improves on. ViST sequences
// documents by depth-first traversal of (symbol, prefix-path) pairs —
// informationally identical to our path encoding — indexes them in the same
// trie + path-link structure, and answers branching queries by matching
// each query branch independently within the parent match's range and
// joining the per-branch document sets. Because neither the joins nor the
// naive per-branch matching enforce the constraint criterion, false alarms
// from identical sibling nodes survive and must be eliminated by verifying
// every candidate document — the "expensive join operations" the paper
// charges ViST with (Section 6.3, Figure 16(b)).
package vist

import (
	"fmt"
	"slices"

	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// Index is a ViST-style index over a corpus.
type Index struct {
	ix  *index.Index
	enc *pathenc.Encoder
	// Stats of the most recent Query call.
	lastStats QueryStats
}

// QueryStats reports the work a query performed — the joins and the
// candidate verifications are what make ViST slow relative to constraint
// sequencing.
type QueryStats struct {
	// JoinedDocSets counts the per-branch document sets intersected.
	JoinedDocSets int
	// JoinedDocIDs counts document ids flowing through those joins.
	JoinedDocIDs int
	// Candidates counts documents surviving the joins.
	Candidates int
	// Verified counts ground-truth verifications performed.
	Verified int
}

// Options configures Build.
type Options struct {
	// Encoder interns designators and paths; required.
	Encoder *pathenc.Encoder
	// InstantiationLimit caps wildcard expansion (<= 0: default).
	InstantiationLimit int
}

// Build sequences the corpus depth-first and indexes it. Documents are
// retained: ViST must verify candidates to remove false alarms.
func Build(docs []*xmltree.Document, opts Options) (*Index, error) {
	if opts.Encoder == nil {
		return nil, fmt.Errorf("vist: Options.Encoder is required")
	}
	ix, err := index.Build(docs, index.Options{
		Encoder:            opts.Encoder,
		Strategy:           sequence.DepthFirst{Enc: opts.Encoder},
		InstantiationLimit: opts.InstantiationLimit,
		KeepDocuments:      true,
	})
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix, enc: opts.Encoder}, nil
}

// NumNodes reports the trie size (ViST's index is the DF trie).
func (v *Index) NumNodes() int { return v.ix.NumNodes() }

// LastStats returns the work counters of the most recent Query.
func (v *Index) LastStats() QueryStats { return v.lastStats }

// Query answers a tree-pattern query: per-branch naive matching, document
// joins, then per-candidate verification. Results are exact.
func (v *Index) Query(pat *query.Pattern) ([]int32, error) {
	v.lastStats = QueryStats{}
	insts := pat.Instantiate(v.enc, v.ix.ChildIdx(), 0)
	candSet := map[int32]bool{}
	for _, inst := range insts {
		children := make([][]int, len(inst.Paths))
		root := -1
		for i, par := range inst.Parent {
			if par < 0 {
				root = i
			} else {
				children[par] = append(children[par], i)
			}
		}
		if root < 0 {
			continue
		}
		docs, err := v.docsFor(inst, children, root, 1, v.ix.MaxSerial())
		if err != nil {
			return nil, err
		}
		for _, id := range docs {
			candSet[id] = true
		}
	}
	cand := make([]int32, 0, len(candSet))
	for id := range candSet {
		cand = append(cand, id)
	}
	slices.Sort(cand)
	v.lastStats.Candidates = len(cand)

	// False-alarm elimination: verify every candidate document.
	byID := map[int32]*xmltree.Document{}
	for _, d := range v.ix.Documents() {
		byID[d.ID] = d
	}
	var out []int32
	for _, id := range cand {
		v.lastStats.Verified++
		if d := byID[id]; d != nil && pat.MatchesTree(d.Root) {
			out = append(out, id)
		}
	}
	return out, nil
}

// docsFor returns the documents containing a match of the instance subtree
// rooted at node, anchored within [lo, hi] of the trie: the union over
// matching link entries of the intersection (JOIN) of the children's
// document sets.
func (v *Index) docsFor(inst query.Instance, children [][]int, node int, lo, hi int32) ([]int32, error) {
	l := v.ix.Link(inst.Paths[node])
	var union map[int32]bool
	for k := l.LowerBound(lo); k < l.Len() && l.Pre(k) <= hi; k++ {
		pre, max := l.Pre(k), l.Max(k)
		var docs []int32
		if len(children[node]) == 0 {
			var err error
			if docs, err = v.ix.CollectDocs(pre, max, nil); err != nil {
				return nil, err
			}
		} else {
			// Match each branch independently within the entry's range, then
			// join.
			sets := make([][]int32, 0, len(children[node]))
			for _, c := range children[node] {
				set, err := v.docsFor(inst, children, c, pre+1, max)
				if err != nil {
					return nil, err
				}
				sets = append(sets, set)
			}
			docs = v.joinDocSets(sets)
		}
		if union == nil {
			union = map[int32]bool{}
		}
		for _, id := range docs {
			union[id] = true
		}
	}
	out := make([]int32, 0, len(union))
	for id := range union {
		out = append(out, id)
	}
	slices.Sort(out)
	return out, nil
}

// joinDocSets intersects sorted document id sets, tracking join work.
func (v *Index) joinDocSets(sets [][]int32) []int32 {
	if len(sets) == 0 {
		return nil
	}
	v.lastStats.JoinedDocSets += len(sets)
	for _, s := range sets {
		v.lastStats.JoinedDocIDs += len(s)
	}
	acc := dedupSorted(sets[0])
	for _, s := range sets[1:] {
		s = dedupSorted(s)
		var next []int32
		i, j := 0, 0
		for i < len(acc) && j < len(s) {
			switch {
			case acc[i] == s[j]:
				next = append(next, acc[i])
				i++
				j++
			case acc[i] < s[j]:
				i++
			default:
				j++
			}
		}
		acc = next
		if len(acc) == 0 {
			break
		}
	}
	return acc
}

func dedupSorted(s []int32) []int32 {
	if len(s) == 0 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
