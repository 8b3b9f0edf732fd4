package sequence

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// names renders a sequence as dot-joined path strings for readable asserts.
func names(enc *pathenc.Encoder, s Sequence) []string {
	out := make([]string, len(s))
	for i, p := range s {
		out[i] = enc.PathString(p)
	}
	return out
}

func assertSeq(t *testing.T, enc *pathenc.Encoder, got Sequence, want []string) {
	t.Helper()
	g := names(enc, got)
	if len(g) != len(want) {
		t.Fatalf("sequence length %d want %d\ngot  %v\nwant %v", len(g), len(want), g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("sequence[%d] = %q want %q\ngot  %v\nwant %v", i, g[i], want[i], g, want)
		}
	}
}

// v returns the canonical designator name for a value, so expectations can
// be written independently of the hash function.
func v(enc *pathenc.Encoder, val string) string {
	return enc.SymbolName(enc.ValueSymbol(val))
}

func TestTable1DepthFirstSequences(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}

	b := df.Sequence(xmltree.Figure3b())
	assertSeq(t, enc, b, []string{
		"P", "P." + v(enc, "xml"), "P.D", "P.D.L", "P.D.L." + v(enc, "boston"),
		"P.D", "P.D.M", "P.D.M." + v(enc, "johnson"),
	})
	c := df.Sequence(xmltree.Figure3c())
	assertSeq(t, enc, c, []string{
		"P", "P." + v(enc, "xml"), "P.D", "P.D",
		"P.D.L", "P.D.L." + v(enc, "boston"),
		"P.D.M", "P.D.M." + v(enc, "johnson"),
	})
	if Equal(b, c) {
		t.Fatal("Table 1: the two depth-first sequences must differ")
	}
}

func TestEq4Figure1Sequence(t *testing.T) {
	// Eq (4): the depth-first constraint sequence of Figure 1 —
	// ⟨P, Pv1, PR, PRM, PRMv2, PRL, PRLv3, PD, PDM, PDMv4, PDU, PDUM,
	//  PDUMv5, PDUN, PDUNv6, PDU, PDUN, PDUNv7, PDL, PDLv8⟩
	// (the paper's rendering omits the second PDUN before PDUNv7; the
	// element is of course present in the traversal).
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}
	got := df.Sequence(xmltree.Figure1())
	assertSeq(t, enc, got, []string{
		"P", "P." + v(enc, "xml"),
		"P.R", "P.R.M", "P.R.M." + v(enc, "tom"), "P.R.L", "P.R.L." + v(enc, "newyork"),
		"P.D", "P.D.M", "P.D.M." + v(enc, "johnson"),
		"P.D.U", "P.D.U.M", "P.D.U.M." + v(enc, "mary"), "P.D.U.N", "P.D.U.N." + v(enc, "GUI"),
		"P.D.U", "P.D.U.N", "P.D.U.N." + v(enc, "engine"),
		"P.D.L", "P.D.L." + v(enc, "boston"),
	})
	if err := Validate(enc, got); err != nil {
		t.Fatalf("Eq 4 sequence invalid: %v", err)
	}
	// It satisfies constraint f2: the second PDU is the forward prefix of
	// the engine-side PDUN, not the first.
	var pduPositions []int
	PDU := got[10]
	for i, p := range got {
		if p == PDU {
			pduPositions = append(pduPositions, i)
		}
	}
	if len(pduPositions) != 2 {
		t.Fatalf("PDU occurrences = %v", pduPositions)
	}
	secondPDUN := 16
	if k := ForwardPrefixPos(enc, got, secondPDUN, PDU); k != pduPositions[1] {
		t.Fatalf("forward prefix of second PDUN = %d want %d", k, pduPositions[1])
	}
}

func TestEncodeNodesIdenticalSiblingDetection(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	nodes := EncodeNodes(xmltree.Figure3c(), enc)
	// The two D children are identical siblings; nothing else is.
	count := 0
	for _, n := range nodes {
		if n.HasIdenticalSibling {
			count++
			if n.Node.Name != "D" {
				t.Fatalf("non-D node flagged: %v", n.Node)
			}
		}
	}
	if count != 2 {
		t.Fatalf("flagged %d nodes, want 2", count)
	}
	if !HasIdenticalSiblings(xmltree.Figure3c(), enc) {
		t.Fatal("Figure 3(c) has identical siblings")
	}
	if HasIdenticalSiblings(xmltree.Figure3a(), enc) {
		t.Fatal("Figure 3(a) has none")
	}
}

func TestPathMultisetAmbiguity(t *testing.T) {
	// Figures 3(b) and 3(c) have the same multiset of path-encoded nodes —
	// the paper's motivation for constraints (Section 2.2).
	enc := pathenc.NewEncoder(0)
	mb := PathMultiset(xmltree.Figure3b(), enc)
	mc := PathMultiset(xmltree.Figure3c(), enc)
	if len(mb) != len(mc) {
		t.Fatalf("multiset sizes differ: %d %d", len(mb), len(mc))
	}
	for p, n := range mb {
		if mc[p] != n {
			t.Fatalf("multisets differ at %s: %d vs %d", enc.PathString(p), n, mc[p])
		}
	}
}

func TestForwardPrefixPaperExample(t *testing.T) {
	// "in sequence ⟨P, PD, PDL, PDLv1, PD, PDM, PDMv3⟩, the second PD is a
	// forward prefix of PDMv3 while the first PD is not."
	enc := pathenc.NewEncoder(0)
	P := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("P"))
	PD := enc.Extend(P, enc.ElementSymbol("D"))
	PDL := enc.Extend(PD, enc.ElementSymbol("L"))
	PDLv1 := enc.Extend(PDL, enc.ValueSymbol("boston"))
	PDM := enc.Extend(PD, enc.ElementSymbol("M"))
	PDMv3 := enc.Extend(PDM, enc.ValueSymbol("johnson"))
	seq := Sequence{P, PD, PDL, PDLv1, PD, PDM, PDMv3}

	if got := ForwardPrefixPos(enc, seq, 6, PD); got != 4 {
		t.Fatalf("forward prefix of PDMv3 for PD = position %d want 4", got)
	}
	if !IsForwardPrefix(enc, seq, 4, 6) {
		t.Fatal("second PD should be a forward prefix of PDMv3")
	}
	if IsForwardPrefix(enc, seq, 1, 6) {
		t.Fatal("first PD must not be a forward prefix of PDMv3")
	}
	// Non-prefix paths are rejected.
	if got := ForwardPrefixPos(enc, seq, 6, PDL); got != -1 {
		t.Fatalf("PDL is not a prefix of PDMv3; got position %d", got)
	}
	// When no occurrence precedes, the closest after is chosen.
	seq2 := Sequence{P, PDM, PD}
	if got := ForwardPrefixPos(enc, seq2, 1, PD); got != 2 {
		t.Fatalf("forward prefix after the element = %d want 2", got)
	}
}

func TestDecodeTable2Sequences(t *testing.T) {
	// Every row of Table 2 decodes to the tree of Figure 3(c).
	enc := pathenc.NewEncoder(0)
	P := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("P"))
	Pv0 := enc.Extend(P, enc.ValueSymbol("xml"))
	PD := enc.Extend(P, enc.ElementSymbol("D"))
	PDL := enc.Extend(PD, enc.ElementSymbol("L"))
	PDLv1 := enc.Extend(PDL, enc.ValueSymbol("boston"))
	PDM := enc.Extend(PD, enc.ElementSymbol("M"))
	PDMv3 := enc.Extend(PDM, enc.ValueSymbol("johnson"))

	rows := []Sequence{
		{P, Pv0, PD, PD, PDL, PDLv1, PDM, PDMv3},
		{P, PD, Pv0, PD, PDM, PDMv3, PDL, PDLv1},
		{P, PD, PDL, Pv0, PDLv1, PDM, PDMv3, PD},
		{P, PD, PDM, PDMv3, Pv0, PDL, PDLv1, PD},
		{P, PD, PDM, PDMv3, PDL, Pv0, PDLv1, PD},
	}
	want := CanonicalizeValues(xmltree.Figure3c(), enc)
	for i, row := range rows {
		tree, err := Decode(enc, row)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if !xmltree.Isomorphic(tree, want) {
			t.Fatalf("row %d decoded to %v, want isomorphic to %v", i, tree, want)
		}
		if err := Validate(enc, row); err != nil {
			t.Fatalf("row %d: validate: %v", i, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	P := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("P"))
	PD := enc.Extend(P, enc.ElementSymbol("D"))
	PDL := enc.Extend(PD, enc.ElementSymbol("L"))
	Q := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("Q"))

	cases := []struct {
		name string
		seq  Sequence
	}{
		{"empty", nil},
		{"no root", Sequence{PD, PDL}},
		{"two roots", Sequence{P, Q}},
		{"missing ancestor", Sequence{P, PDL}},
	}
	for _, c := range cases {
		if _, err := Decode(enc, c.seq); err == nil {
			t.Errorf("%s: Decode should fail", c.name)
		}
	}
}

func TestFigure4FalseAlarmAtSequenceLevel(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}
	d := df.Sequence(xmltree.Figure4D())
	q := df.Sequence(xmltree.Figure4Q())
	// ⟨P, PL, PLS, PLB⟩ is a subsequence of ⟨P, PL, PLS, PL, PLB⟩ even
	// though Q is not a substructure of D — the false alarm.
	if !IsSubsequence(q, d) {
		t.Fatal("naive subsequence match should (wrongly) accept the Figure 4 pair")
	}
	if xmltree.Embeds(xmltree.Figure4D(), xmltree.Figure4Q()) {
		t.Fatal("ground truth: Q does not embed in D")
	}
}

func TestFigure5FalseDismissalEnumeration(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}
	a := df.Sequence(xmltree.Figure5a())
	b := df.Sequence(xmltree.Figure5b())
	if Equal(a, b) {
		t.Fatal("the isomorphic pair should have different DF sequences")
	}
	// Enumeration of the identical-sibling group produces both orders.
	seqs := EnumerateSequences(df, xmltree.Figure5a(), 0)
	if len(seqs) != 2 {
		t.Fatalf("enumeration produced %d sequences, want 2", len(seqs))
	}
	foundA, foundB := false, false
	for _, s := range seqs {
		if Equal(s, a) {
			foundA = true
		}
		if Equal(s, b) {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("enumeration missed a form: %v %v", foundA, foundB)
	}
}

func TestEnumerateNoIdenticalSiblings(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}
	seqs := EnumerateSequences(df, xmltree.Figure3a(), 0)
	if len(seqs) != 1 {
		t.Fatalf("tree without identical siblings enumerated %d sequences", len(seqs))
	}
}

func TestEnumerateLimit(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	// P with 4 identical leaf children A: 4! orderings but all yield the
	// same sequence (identical subtrees), so enumeration dedupes to 1.
	tree := xmltree.NewElem("P",
		xmltree.NewElem("A"), xmltree.NewElem("A"),
		xmltree.NewElem("A"), xmltree.NewElem("A"))
	df := DepthFirst{Enc: enc}
	seqs := EnumerateSequences(df, tree, 0)
	if len(seqs) != 1 {
		t.Fatalf("identical subtrees should dedupe to one sequence, got %d", len(seqs))
	}
	// Distinguishable subtrees: A(X), A(Y), A(Z): 3! = 6, capped at 4.
	tree2 := xmltree.NewElem("P",
		xmltree.NewElem("A", xmltree.NewElem("X")),
		xmltree.NewElem("A", xmltree.NewElem("Y")),
		xmltree.NewElem("A", xmltree.NewElem("Z")))
	all := EnumerateSequences(df, tree2, 0)
	if len(all) != 6 {
		t.Fatalf("want 6 distinct sequences, got %d", len(all))
	}
	capped := EnumerateSequences(df, tree2, 4)
	if len(capped) > 4 {
		t.Fatalf("cap violated: %d", len(capped))
	}
}

func TestBreadthFirstOrder(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	bf := BreadthFirst{Enc: enc}
	got := bf.Sequence(xmltree.Figure11a())
	// BF of Figure 11(a): P, then depth-2 (v1, R), then depth-3 (U, L), ...
	assertSeq(t, enc, got, []string{
		"P", "P." + v(enc, "x1"), "P.R", "P.R.U", "P.R.L",
		"P.R.U.M", "P.R.L." + v(enc, "x3"), "P.R.U.M." + v(enc, "x2"),
	})
}

func TestGbestSection52Example(t *testing.T) {
	// The probability-based sequence of the Figure 13 document:
	// ⟨P, PR, PRU, PRUM, PRL, PRLv3, Pv1, PRUMv2⟩.
	enc := pathenc.NewEncoder(0)
	cs := NewProbability(schema.Figure12(), enc)
	got := cs.Sequence(xmltree.Figure11a())
	assertSeq(t, enc, got, []string{
		"P", "P.R", "P.R.U", "P.R.U.M", "P.R.L",
		"P.R.L." + v(enc, "x3"), "P." + v(enc, "x1"), "P.R.U.M." + v(enc, "x2"),
	})
}

func TestTable3PrefixSharing(t *testing.T) {
	// Probability-based sequences of Figures 11(a)/(b) share a prefix of
	// length 6 (of 8); depth-first and breadth-first share only length 1.
	encDF := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: encDF}
	share := func(a, b Sequence) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	if got := share(df.Sequence(xmltree.Figure11a()), df.Sequence(xmltree.Figure11b())); got != 1 {
		t.Fatalf("DF shared prefix = %d want 1", got)
	}
	encBF := pathenc.NewEncoder(0)
	bf := BreadthFirst{Enc: encBF}
	if got := share(bf.Sequence(xmltree.Figure11a()), bf.Sequence(xmltree.Figure11b())); got != 1 {
		t.Fatalf("BF shared prefix = %d want 1", got)
	}
	encCS := pathenc.NewEncoder(0)
	cs := NewProbability(schema.Figure12(), encCS)
	if got := share(cs.Sequence(xmltree.Figure11a()), cs.Sequence(xmltree.Figure11b())); got != 6 {
		t.Fatalf("CS shared prefix = %d want 6", got)
	}
}

func TestRandomStrategyDeterministic(t *testing.T) {
	encA := pathenc.NewEncoder(0)
	encB := pathenc.NewEncoder(0)
	ra := NewRandom(encA, 7)
	rb := NewRandom(encB, 7)
	sa := ra.Sequence(xmltree.Figure1())
	sb := rb.Sequence(xmltree.Figure1())
	if !Equal(sa, sb) {
		t.Fatal("same seed should reproduce the same sequence")
	}
	if err := Validate(encA, sa); err != nil {
		t.Fatalf("random sequence invalid: %v", err)
	}
}

func TestStrategyNames(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	cases := map[string]Strategy{
		"depth-first":   DepthFirst{Enc: enc},
		"breadth-first": BreadthFirst{Enc: enc},
		"random":        NewRandom(enc, 1),
		"constraint":    NewProbability(schema.Figure12(), enc),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q want %q", s.Name(), want)
		}
	}
}

// subtreeContiguous verifies the Section 2.4 procedure: in the output, the
// subtree of every node that has identical siblings occupies a contiguous
// run starting at the node.
func subtreeContiguous(t *testing.T, enc *pathenc.Encoder, root *xmltree.Node, seq Sequence) {
	t.Helper()
	tree, err := Decode(enc, seq)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := CanonicalizeValues(root, enc)
	if !xmltree.Isomorphic(tree, want) {
		t.Fatalf("round trip broke tree:\nseq  %s\ngot  %v\nwant %v", seq.String(enc), tree, want)
	}
}

func allStrategies(enc *pathenc.Encoder, s *schema.Schema) []Strategy {
	return []Strategy{
		DepthFirst{Enc: enc},
		BreadthFirst{Enc: enc},
		NewRandom(enc, 99),
		NewProbability(s, enc),
	}
}

func TestAllStrategiesRoundTripFixtures(t *testing.T) {
	fixtures := []*xmltree.Node{
		xmltree.Figure1(), xmltree.Figure2a(), xmltree.Figure2b(), xmltree.Figure2c(),
		xmltree.Figure3a(), xmltree.Figure3b(), xmltree.Figure3c(),
		xmltree.Figure4D(), xmltree.Figure4Q(), xmltree.Figure5a(), xmltree.Figure11a(),
	}
	enc := pathenc.NewEncoder(0)
	for _, g := range allStrategies(enc, schema.Figure12()) {
		for fi, f := range fixtures {
			seq := g.Sequence(f)
			if len(seq) != f.Size() {
				t.Fatalf("%s fixture %d: sequence length %d, tree size %d", g.Name(), fi, len(seq), f.Size())
			}
			subtreeContiguous(t, enc, f, seq)
		}
	}
}

// Property: every strategy's output is a valid constraint sequence that
// decodes back to the (value-canonicalized) input tree, even with many
// identical siblings.
func TestQuickStrategiesRoundTrip(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	strategies := allStrategies(enc, schema.Figure12())
	rng := rand.New(rand.NewSource(2024))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		tree := xmltreetest.RandomSubtree(r, 5, 3)
		want := CanonicalizeValues(tree, enc)
		for _, g := range strategies {
			seq := g.Sequence(tree)
			if len(seq) != tree.Size() {
				return false
			}
			back, err := Decode(enc, seq)
			if err != nil {
				t.Logf("%s: decode error: %v for %v", g.Name(), err, tree)
				return false
			}
			if !xmltree.Isomorphic(back, want) {
				t.Logf("%s: round trip mismatch:\ntree %v\nseq  %s\nback %v", g.Name(), tree, seq.String(enc), back)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Property: strategies emit ancestors before descendants.
func TestQuickAncestorsFirst(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	strategies := allStrategies(enc, schema.Figure12())
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		tree := xmltreetest.RandomSubtree(r, 4, 3)
		for _, g := range strategies {
			seq := g.Sequence(tree)
			seenDepth1 := false
			for i, p := range seq {
				if enc.Depth(p) == 1 {
					seenDepth1 = true
				}
				// The parent occurrence (forward prefix) must exist; for
				// ancestor-first strategies it must be BEFORE i.
				if enc.Depth(p) > 1 {
					k := ParentForwardPrefixPos(enc, seq, i)
					if k < 0 || k >= i {
						return false
					}
				}
			}
			if !seenDepth1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPruferPaperExample(t *testing.T) {
	// Figure 2(a) with the paper's arbitrary labels: M=1, D(M)=5, R=3,
	// L=4, D(L)=2, P=6 gives ⟨5,6,2,6,6⟩... the paper labels from 0 to
	// n-1, but its example uses 1..6; we shift to 0..5 and expect
	// ⟨4,5,1,5,5⟩ (each label one less).
	tree := xmltree.Figure2a()
	// tree children: R, D(L), D(M)
	R := tree.Children[0]
	DL := tree.Children[1]
	L := DL.Children[0]
	DM := tree.Children[2]
	M := DM.Children[0]
	labels := map[*xmltree.Node]int{
		M: 0, DL: 1, R: 2, L: 3, DM: 4, tree: 5,
	}
	seq, err := PruferNumbered(tree, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 1, 5, 5}
	if len(seq) != len(want) {
		t.Fatalf("sequence %v want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence %v want %v", seq, want)
		}
	}
}

func TestPruferErrors(t *testing.T) {
	tree := xmltree.Figure2a()
	if _, err := PruferNumbered(tree, map[*xmltree.Node]int{tree: 0}); err == nil {
		t.Fatal("wrong label count should fail")
	}
	bad := PostorderLabels(tree)
	for k := range bad {
		bad[k] = 0 // all zero: not a permutation
	}
	if _, err := PruferNumbered(tree, bad); err == nil {
		t.Fatal("non-permutation labels should fail")
	}
}

func TestLabeledPrufer(t *testing.T) {
	lps, nps, err := LabeledPrufer(xmltree.Figure2a())
	if err != nil {
		t.Fatal(err)
	}
	if len(lps) != 5 || len(nps) != 5 {
		t.Fatalf("LPS %v NPS %v", lps, nps)
	}
	// Every LPS entry is a parent label: P or D here.
	for _, l := range lps {
		if l != "P" && l != "D" {
			t.Fatalf("unexpected LPS label %q (lps=%v)", l, lps)
		}
	}
	// The root P is the last deleted parent.
	if lps[len(lps)-1] != "P" {
		t.Fatalf("last LPS entry %q want P", lps[len(lps)-1])
	}
	if _, _, err := LabeledPrufer(xmltree.NewElem("solo")); err != nil {
		t.Fatalf("single node tree: %v", err)
	}
}

func TestPruferDecode(t *testing.T) {
	// Classic unrooted round trip on a path graph 0-1-2-3: Prüfer of the
	// path rooted at 3 with edges (0,1),(1,2),(2,3) is ⟨1,2⟩.
	parent, err := PruferDecode([]int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parent[0] != 1 || parent[1] != 2 || parent[2] != 3 || parent[3] != -1 {
		t.Fatalf("decoded parents %v", parent)
	}
	if _, err := PruferDecode([]int{9}, 3); err == nil {
		t.Fatal("out of range label should fail")
	}
	if _, err := PruferDecode([]int{1}, 5); err == nil {
		t.Fatal("wrong length should fail")
	}
	if _, err := PruferDecode(nil, 1); err == nil {
		t.Fatal("n<2 should fail")
	}
}

func TestIsSubsequenceBasics(t *testing.T) {
	d := Sequence{1, 2, 3, 2, 4}
	cases := []struct {
		q    Sequence
		want bool
	}{
		{Sequence{}, true},
		{Sequence{1, 3, 4}, true},
		{Sequence{2, 2}, true},
		{Sequence{3, 1}, false},
		{Sequence{1, 2, 3, 2, 4}, true},
		{Sequence{5}, false},
	}
	for _, c := range cases {
		if got := IsSubsequence(c.q, d); got != c.want {
			t.Errorf("IsSubsequence(%v) = %v want %v", c.q, got, c.want)
		}
	}
}

func TestSequenceString(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	df := DepthFirst{Enc: enc}
	s := df.Sequence(xmltree.Figure2b())
	str := s.String(enc)
	if !strings.HasPrefix(str, "⟨P, P.D") || !strings.HasSuffix(str, "⟩") {
		t.Fatalf("String = %q", str)
	}
}
