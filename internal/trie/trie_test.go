package trie

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/xmltreetest"
)

// figure7Paths interns p1..p10 designators for the Figure 7 example.
func figure7Paths(enc *pathenc.Encoder) map[string]pathenc.PathID {
	// Build a small path family rooted at p1: the exact shapes are
	// irrelevant to the trie (it treats paths as opaque), so give each pi
	// its own chain under p1.
	m := map[string]pathenc.PathID{}
	p1 := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("p1"))
	m["p1"] = p1
	for _, name := range []string{"p2", "p7", "p8", "p9", "p10"} {
		m[name] = enc.Extend(p1, enc.ElementSymbol(name))
	}
	return m
}

// children lists n's children in pre-order: the first is n+1, and each
// next one follows its elder sibling's subtree.
func children(tr *Trie, n NodeID) []NodeID {
	var out []NodeID
	for c := n + 1; int32(c) <= tr.Max(n); c = NodeID(tr.Max(c) + 1) {
		out = append(out, c)
	}
	return out
}

// childByPath returns n's child with path p, or -1.
func childByPath(tr *Trie, n NodeID, p pathenc.PathID) NodeID {
	for _, c := range children(tr, n) {
		if tr.Path(c) == p {
			return c
		}
	}
	return -1
}

// docsOf returns the ids of the documents ending at n.
func docsOf(tr *Trie, n NodeID) []int32 {
	for i := 0; i < tr.NumEnds(); i++ {
		if e, ids := tr.End(i); e == n {
			return ids
		}
	}
	return nil
}

// docsInRange returns the ids of the documents ending at a node labelled
// within [lo, hi] — Algorithm 1's "output document id lists of node v and
// all nodes under v" for v = [lo, hi].
func docsInRange(tr *Trie, lo, hi int32) []int32 {
	var out []int32
	for i := 0; i < tr.NumEnds(); i++ {
		if e, ids := tr.End(i); int32(e) >= lo && int32(e) <= hi {
			out = append(out, ids...)
		}
	}
	return out
}

// parents returns every node's parent (-1 for the root): the innermost
// earlier node whose interval contains it.
func parents(tr *Trie) []NodeID {
	out := make([]NodeID, tr.NumNodes()+1)
	out[Root] = -1
	stack := []NodeID{Root}
	for n := NodeID(1); int(n) < len(out); n++ {
		for tr.Max(stack[len(stack)-1]) < int32(n) {
			stack = stack[:len(stack)-1]
		}
		out[n] = stack[len(stack)-1]
		stack = append(stack, n)
	}
	return out
}

func TestInsertSingleSequence(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	tr := New()
	// Figure 7's sequence ⟨p1, p10, p2, p7, p9, p8⟩ inserted for doc 3.
	seq := sequence.Sequence{m["p1"], m["p10"], m["p2"], m["p7"], m["p9"], m["p8"]}
	tr.Insert(seq, 3)
	if tr.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d want 6", tr.NumNodes())
	}
	// Walk down the chain; the end node holds doc id 3.
	cur := Root
	for _, p := range seq {
		cur = childByPath(tr, cur, p)
		if cur < 0 {
			t.Fatalf("chain broken at %s", enc.PathString(p))
		}
	}
	ids := docsOf(tr, cur)
	if len(ids) != 1 || ids[0] != 3 || tr.NumEnds() != 1 {
		t.Fatalf("end node docs = %v (%d end nodes)", ids, tr.NumEnds())
	}
}

func TestSharedPrefixes(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	tr := New()
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p7"]}, 1)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p8"]}, 2)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"]}, 3)
	// Nodes: p1, p2, p7, p8 = 4 (prefix p1,p2 shared).
	if tr.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d want 4", tr.NumNodes())
	}
	// Doc 3 ends at the interior p2 node.
	p2node := childByPath(tr, childByPath(tr, Root, m["p1"]), m["p2"])
	ids := docsOf(tr, p2node)
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("interior docs = %v", ids)
	}
}

func TestFreezeLabels(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	tr := New()
	tr.Insert(sequence.Sequence{m["p1"], m["p9"]}, 3)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p8"]}, 2)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p7"]}, 1)
	tr.Freeze()
	p1 := childByPath(tr, Root, m["p1"])
	p2 := childByPath(tr, p1, m["p2"])
	p7 := childByPath(tr, p2, m["p7"])
	p8 := childByPath(tr, p2, m["p8"])
	p9 := childByPath(tr, p1, m["p9"])

	// Pre-order, children by ascending PathID whatever the insertion
	// order: root=0, p1=1, p2=2, p7=3, p8=4, p9=5.
	if p1 != 1 || p2 != 2 || p7 != 3 || p8 != 4 || p9 != 5 {
		t.Fatalf("pre labels: p1=%d p2=%d p7=%d p8=%d p9=%d", p1, p2, p7, p8, p9)
	}
	if tr.Max(p1) != 5 || tr.Max(p2) != 4 || tr.Max(p7) != 3 {
		t.Fatalf("max labels: p1=%d p2=%d p7=%d", tr.Max(p1), tr.Max(p2), tr.Max(p7))
	}
	if tr.Max(Root) != 5 {
		t.Fatalf("root n⊣ = %d", tr.Max(Root))
	}
	// Descendant tests: x⊢ ∈ (y⊢, y⊣].
	isDescendant := func(x, y NodeID) bool { return x > y && int32(x) <= tr.Max(y) }
	if !isDescendant(p7, p1) || !isDescendant(p7, p2) {
		t.Fatal("p7 should descend from p1 and p2")
	}
	if isDescendant(p9, p2) {
		t.Fatal("p9 does not descend from p2")
	}
}

func TestInsertAfterFreezePanics(t *testing.T) {
	tr := New()
	tr.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert after Freeze should panic")
		}
	}()
	tr.Insert(sequence.Sequence{1}, 1)
}

// TestSortedMatchesInsertionReference: the sorted build gives the node
// count of the map-based insertion trie fed in any order, and every
// inserted document reaches an end node; duplicates share one.
func TestSortedMatchesInsertionReference(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	seqs := []sequence.Sequence{
		{m["p1"], m["p9"]},
		{m["p1"], m["p2"], m["p7"]},
		{m["p1"], m["p2"]},
		{m["p1"], m["p2"], m["p7"]},
	}
	ids := []int32{4, 1, 3, 2}
	a := newRefTrie()
	b := New()
	for i := range seqs {
		a.insert(seqs[i], ids[i])
		b.Insert(seqs[i], ids[i])
	}
	if a.numNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.numNodes(), b.NumNodes())
	}
	all := docsInRange(b, 0, int32(b.NumNodes()))
	if len(all) != 4 || b.NumEnds() != 3 {
		t.Fatalf("docs in range = %v over %d end nodes", all, b.NumEnds())
	}
	// The duplicate's ids keep their insertion order.
	if got := docsOf(b, childByPath(b, childByPath(b, childByPath(b, Root, m["p1"]), m["p2"]), m["p7"])); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("duplicate end node docs = %v, want [1 2]", got)
	}
}

// TestWalkPreOrder: node ids are a pre-order — walking them 1..N visits
// each node after its parent, at the depth of its chain.
func TestWalkPreOrder(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	tr := New()
	tr.Insert(sequence.Sequence{m["p1"], m["p9"]}, 2)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p7"]}, 1)
	par := parents(tr)
	depth := make([]int, len(par))
	var paths []pathenc.PathID
	for n := NodeID(1); int(n) < len(par); n++ {
		depth[n] = depth[par[n]] + 1
		paths = append(paths, tr.Path(n))
	}
	if want := []int{0, 1, 2, 3, 2}; !slices.Equal(depth, want) {
		t.Fatalf("depths = %v want %v", depth, want)
	}
	if want := []pathenc.PathID{m["p1"], m["p2"], m["p7"], m["p9"]}; !slices.Equal(paths, want) {
		t.Fatalf("paths in id order = %v want %v", paths, want)
	}
}

func TestDocsInRange(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	m := figure7Paths(enc)
	tr := New()
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p7"]}, 1)
	tr.Insert(sequence.Sequence{m["p1"], m["p2"], m["p8"]}, 2)
	tr.Insert(sequence.Sequence{m["p1"], m["p9"]}, 3)
	tr.Freeze()
	p1 := childByPath(tr, Root, m["p1"])
	p2 := childByPath(tr, p1, m["p2"])
	got := docsInRange(tr, int32(p2), tr.Max(p2))
	if !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("docs under p2 = %v", got)
	}
	all := docsInRange(tr, 0, tr.Max(Root))
	if !slices.Equal(all, []int32{1, 2, 3}) {
		t.Fatalf("all docs = %v", all)
	}
}

// Property: for random corpora of sequences, (1) node count equals the
// number of distinct prefixes, (2) labels satisfy pre ≤ max, child
// intervals nest strictly inside parents, and sibling intervals are
// disjoint.
func TestQuickLabelInvariants(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := sequence.DepthFirst{Enc: enc}
	rng := rand.New(rand.NewSource(55))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		tr := New()
		prefixes := map[string]bool{}
		for d := 0; d < 10; d++ {
			tree := xmltreetest.RandomSubtree(r, 4, 3)
			seq := df.Sequence(tree)
			tr.Insert(seq, int32(d))
			key := ""
			for _, p := range seq {
				key += "," + enc.PathString(p)
				prefixes[key] = true
			}
		}
		if tr.NumNodes() != len(prefixes) {
			return false
		}
		par := parents(tr)
		for n := NodeID(1); int(n) < len(par); n++ {
			if int32(n) > tr.Max(n) || tr.Max(n) > tr.Max(par[n]) {
				return false
			}
			// Sibling disjointness.
			kids := children(tr, n)
			for i := 1; i < len(kids); i++ {
				if int32(kids[i]) <= tr.Max(kids[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refTrie is the insertion trie the sorted build replaced: Insert descends
// a child map and creates nodes in insertion order, each parent keeping its
// children in a sibling list, and freeze labels the nodes by an
// explicit-stack pre-order walk. Fed sequences in sorted order, it creates
// children by ascending path, so its labels are the sorted build's.
type refTrie struct {
	parent, firstChild, lastChild, nextSib []NodeID
	path                                   []pathenc.PathID
	child                                  map[refKey]NodeID
	docs                                   map[NodeID][]int32
	pre, max                               []int32
}

type refKey struct {
	parent NodeID
	path   pathenc.PathID
}

func newRefTrie() *refTrie {
	r := &refTrie{child: map[refKey]NodeID{}, docs: map[NodeID][]int32{}}
	r.addNode(-1, pathenc.EmptyPath)
	return r
}

func (r *refTrie) addNode(parent NodeID, p pathenc.PathID) NodeID {
	id := NodeID(len(r.parent))
	r.parent = append(r.parent, parent)
	r.path = append(r.path, p)
	r.firstChild = append(r.firstChild, -1)
	r.lastChild = append(r.lastChild, -1)
	r.nextSib = append(r.nextSib, -1)
	if parent >= 0 {
		r.child[refKey{parent, p}] = id
		if r.firstChild[parent] < 0 {
			r.firstChild[parent] = id
		} else {
			r.nextSib[r.lastChild[parent]] = id
		}
		r.lastChild[parent] = id
	}
	return id
}

func (r *refTrie) numNodes() int { return len(r.parent) - 1 }

func (r *refTrie) insert(seq sequence.Sequence, docID int32) {
	cur := Root
	for _, p := range seq {
		next, ok := r.child[refKey{cur, p}]
		if !ok {
			next = r.addNode(cur, p)
		}
		cur = next
	}
	r.docs[cur] = append(r.docs[cur], docID)
}

func (r *refTrie) freeze() {
	n := len(r.parent)
	r.pre, r.max = make([]int32, n), make([]int32, n)
	serial := int32(0)
	type frame struct{ node, child NodeID }
	stack := []frame{{Root, r.firstChild[Root]}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < 0 {
			r.max[f.node] = serial
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.child
		f.child = r.nextSib[c]
		serial++
		r.pre[c] = serial
		stack = append(stack, frame{c, r.firstChild[c]})
	}
}

// randomSequences draws n sequences over a small alphabet, built so that a
// set holds shared prefixes, duplicates, sequences that are prefixes of
// others and one-element sequences.
func randomSequences(rng *rand.Rand, n, alpha int) []sequence.Sequence {
	sym := func() pathenc.PathID { return pathenc.PathID(1 + rng.Intn(alpha)) }
	var out []sequence.Sequence
	for len(out) < n {
		var s sequence.Sequence
		switch k := rng.Intn(5); {
		case len(out) == 0 || k == 0:
			for j := rng.Intn(6); j >= 0; j-- {
				s = append(s, sym())
			}
		case k == 1: // a duplicate
			s = slices.Clone(out[rng.Intn(len(out))])
		case k == 2: // a non-empty prefix of another
			o := out[rng.Intn(len(out))]
			s = slices.Clone(o[:1+rng.Intn(len(o))])
		case k == 3: // a shared prefix, then a new tail
			o := out[rng.Intn(len(out))]
			s = slices.Clone(o[:rng.Intn(len(o)+1)])
			for j := rng.Intn(3); j >= 0; j-- {
				s = append(s, sym())
			}
		default:
			s = sequence.Sequence{sym()}
		}
		out = append(out, s)
	}
	return out
}

// FuzzSortedTrie inserts a random sequence set in random order and checks
// the sorted trie against the insertion reference fed the same sequences in
// stable sorted order: the same node count, the number of distinct
// non-empty prefixes, and at every node the same path, n⊢, n⊣ and ids.
func FuzzSortedTrie(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1))
	f.Add(int64(2), uint8(12), uint8(2))
	f.Add(int64(3), uint8(40), uint8(3))
	f.Add(int64(4), uint8(200), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, alpha uint8) {
		rng := rand.New(rand.NewSource(seed))
		seqs := randomSequences(rng, int(n), 1+int(alpha%8))
		ids := make([]int32, len(seqs))
		for i, k := range rng.Perm(len(seqs)) {
			ids[i] = int32(k)
		}
		perm := rng.Perm(len(seqs))
		tr := New()
		for _, i := range perm {
			tr.Insert(seqs[i], ids[i])
		}
		prefixes := map[string]bool{}
		for _, s := range seqs {
			for j := 1; j <= len(s); j++ {
				prefixes[fmt.Sprint(s[:j])] = true
			}
		}
		if tr.NumNodes() != len(prefixes) {
			t.Fatalf("%d nodes for %d distinct non-empty prefixes", tr.NumNodes(), len(prefixes))
		}
		// The reference gets the same insertion order, stably sorted.
		order := slices.Clone(perm)
		slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(seqs[a], seqs[b]) })
		ref := newRefTrie()
		for _, i := range order {
			ref.insert(seqs[i], ids[i])
		}
		ref.freeze()
		if ref.numNodes() != tr.NumNodes() {
			t.Fatalf("reference has %d nodes, sorted trie %d", ref.numNodes(), tr.NumNodes())
		}
		ends := 0
		for r := range ref.parent {
			n := NodeID(ref.pre[r])
			if tr.Path(n) != ref.path[r] || tr.Max(n) != ref.max[r] {
				t.Fatalf("node ⊢%d: path %d ⊣%d, reference path %d ⊣%d", n, tr.Path(n), tr.Max(n), ref.path[r], ref.max[r])
			}
			if want := ref.docs[NodeID(r)]; !slices.Equal(docsOf(tr, n), want) {
				t.Fatalf("node ⊢%d: ids %v, reference %v", n, docsOf(tr, n), want)
			}
			if len(ref.docs[NodeID(r)]) > 0 {
				ends++
			}
		}
		if ends != tr.NumEnds() {
			t.Fatalf("%d end nodes, reference %d", tr.NumEnds(), ends)
		}
	})
}
