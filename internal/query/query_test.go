package query

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func TestMatchesTreePaperQuery(t *testing.T) {
	doc := xmltree.Figure1()
	// The Section 3.1 query:
	// /Project[Research[Loc=newyork]]/Develop[Loc=boston] with Figure 1's
	// single-letter designators.
	p := MustParse("/P[R/L='newyork']/D[L='boston']")
	if !p.MatchesTree(doc) {
		t.Fatal("Section 3.1 query should match Figure 1")
	}
	wrong := MustParse("/P[R/L='boston']")
	if wrong.MatchesTree(doc) {
		t.Fatal("R/L=boston must not match (boston is under D)")
	}
}

func TestMatchesTreeAxes(t *testing.T) {
	doc := xmltree.Figure1()
	cases := []struct {
		q    string
		want bool
	}{
		{"/P//N[text='GUI']", true},
		{"/P/N[text='GUI']", false},      // N is not a direct child of P
		{"//N[text='GUI']", true},        // anchored anywhere
		{"//U/N[text='engine']", true},   //
		{"//U/M[text='engine']", false},  // engine is under N
		{"/P/*/M[text='johnson']", true}, // * = D
		{"/P/*/M[text='nobody']", false}, //
		{"//P", true},                    // descendant-or-self anchor hits the root
		{"/D", false},                    // root must be P on the child axis
		{"/P[R][D/U/N='GUI']", true},     // branching
		{"/P[R/M='tom'][D/M='johnson']", true},
		{"/P[R/M='johnson']", false}, // johnson is D's manager
	}
	for _, c := range cases {
		if got := MustParse(c.q).MatchesTree(doc); got != c.want {
			t.Errorf("MatchesTree(%q) = %v want %v", c.q, got, c.want)
		}
	}
}

func TestMatchesTreeInjectiveSiblings(t *testing.T) {
	// Figure 4: query with one L over S and B must not match data with
	// separate L(S) and L(B).
	d := xmltree.Figure4D()
	if MustParse("/P/L[S][B]").MatchesTree(d) {
		t.Fatal("false alarm in ground truth matcher")
	}
	if !MustParse("/P[L/S][L/B]").MatchesTree(d) {
		t.Fatal("two separate L branches should match")
	}
	// Two identical pattern branches need two witnesses.
	one := xmltree.NewElem("P", xmltree.NewElem("L"))
	if MustParse("/P[L][L]").MatchesTree(one) {
		t.Fatal("two identical branches must map to distinct children")
	}
}

func TestEvalCorpus(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 10, Root: xmltree.Figure1()},
		{ID: 20, Root: xmltree.Figure4D()},
		{ID: 30, Root: xmltree.Figure2a()},
	}
	got := Eval(docs, MustParse("/P/D"))
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("Eval = %v", got)
	}
	if got := Eval(docs, MustParse("//S")); len(got) != 1 || got[0] != 20 {
		t.Fatalf("Eval //S = %v", got)
	}
	if got := Eval(docs, MustParse("/zzz")); got != nil {
		t.Fatalf("Eval /zzz = %v", got)
	}
}

// corpusEncoder interns the paths of a corpus so instantiation has a table
// to resolve against.
func corpusEncoder(docs ...*xmltree.Node) (*pathenc.Encoder, *pathenc.ChildIndex) {
	enc := pathenc.NewEncoder(0)
	for _, d := range docs {
		sequence.EncodeNodes(d, enc)
	}
	return enc, enc.BuildChildIndex()
}

func TestInstantiateConcreteQuery(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	p := MustParse("/P/D/L[text='boston']")
	insts := p.Instantiate(enc, ci, 0)
	if len(insts) != 1 {
		t.Fatalf("instances = %d want 1", len(insts))
	}
	in := insts[0]
	if len(in.Paths) != 4 {
		t.Fatalf("paths = %d want 4", len(in.Paths))
	}
	if got := enc.PathString(in.Paths[3]); got != "P.D.L."+enc.SymbolName(enc.ValueSymbol("boston")) {
		t.Fatalf("leaf path = %q", got)
	}
	if in.Parent[0] != -1 || in.Parent[1] != 0 || in.Parent[2] != 1 || in.Parent[3] != 2 {
		t.Fatalf("parents = %v", in.Parent)
	}
}

func TestInstantiateWildcard(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	// /P/*/M: * can be R or D (both have M children); U also has M but is
	// at depth 3.
	insts := MustParse("/P/*/M").Instantiate(enc, ci, 0)
	if len(insts) != 2 {
		t.Fatalf("instances = %d want 2 (R and D)", len(insts))
	}
	seen := map[string]bool{}
	for _, in := range insts {
		seen[enc.PathString(in.Paths[2])] = true
	}
	if !seen["P.R.M"] || !seen["P.D.M"] {
		t.Fatalf("instantiated paths = %v", seen)
	}
}

func TestInstantiateDescendant(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	// //M exists at P.R.M, P.D.M, P.D.U.M.
	insts := MustParse("//M").Instantiate(enc, ci, 0)
	if len(insts) != 3 {
		t.Fatalf("instances = %d want 3", len(insts))
	}
	// /P//N: P.D.U.N only (one path, two value extensions irrelevant).
	insts2 := MustParse("/P//N").Instantiate(enc, ci, 0)
	if len(insts2) != 1 {
		t.Fatalf("instances = %d want 1", len(insts2))
	}
	// The levels the step skips are nodes of the instance, so it is a tree
	// of child steps, sequenced as a document is.
	var got []string
	for _, p := range insts2[0].Paths {
		got = append(got, enc.PathString(p))
	}
	if !slices.Equal(got, []string{"P", "P.D", "P.D.U", "P.D.U.N"}) || !slices.Equal(insts2[0].Parent, []int{-1, 0, 1, 2}) {
		t.Fatalf("/P//N instance = %v, parents %v", got, insts2[0].Parent)
	}
}

func TestInstantiatePrunesImpossible(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	if insts := MustParse("/P/Z").Instantiate(enc, ci, 0); len(insts) != 0 {
		t.Fatalf("nonexistent path instantiated: %v", insts)
	}
	if insts := MustParse("/P/D/L[text='zurich']").Instantiate(enc, ci, 0); len(insts) != 0 {
		t.Fatalf("nonexistent value instantiated: %v", insts)
	}
	// A branch that cannot match prunes the whole instance even when the
	// other branch could.
	if insts := MustParse("/P[R][Z]").Instantiate(enc, ci, 0); len(insts) != 0 {
		t.Fatalf("partially impossible pattern instantiated: %v", insts)
	}
}

func TestInstantiateBranching(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	insts := MustParse("/P[R/L='newyork'][D/L='boston']").Instantiate(enc, ci, 0)
	if len(insts) != 1 {
		t.Fatalf("instances = %d want 1", len(insts))
	}
	if got := len(insts[0].Paths); got != 7 {
		t.Fatalf("instance nodes = %d want 7", got)
	}
}

func TestInstantiateLimit(t *testing.T) {
	// A corpus with many sibling names makes /a/* explode; the cap holds.
	root := xmltree.NewElem("a")
	for i := 0; i < 50; i++ {
		root.Children = append(root.Children, xmltree.NewElem(string(rune('A'+i%26))+string(rune('a'+i/26))))
	}
	enc, ci := corpusEncoder(root)
	insts := MustParse("/a/*").Instantiate(enc, ci, 10)
	if len(insts) > 10 {
		t.Fatalf("limit violated: %d", len(insts))
	}
}

func TestInstantiateValueKindMismatch(t *testing.T) {
	enc, ci := corpusEncoder(xmltree.Figure1())
	// //X where X only exists as a VALUE bucket name must not match element
	// tests; conversely value tests must not match element paths.
	insts := MustParse("//tom").Instantiate(enc, ci, 0)
	if len(insts) != 0 {
		t.Fatalf("value bucket matched an element test: %v", insts)
	}
}

// Property: for random documents and random extracted sub-patterns (all
// child axes, concrete), MatchesTree agrees with xmltree embedding, and
// instantiation against the document's own path table yields at least one
// instance.
func TestQuickGroundTruthAgreesWithEmbeds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		doc := xmltreetest.RandomSubtree(r, 4, 3)
		pat := xmltreetest.RandomSubPattern(r, doc)
		p := FromTree(pat)
		if !p.MatchesTree(doc) {
			t.Logf("extracted pattern did not match: doc=%v pat=%v", doc, pat)
			return false
		}
		if xmltree.EmbedsAtRoot(doc, pat) != p.MatchesTree(doc) {
			return false
		}
		enc, ci := corpusEncoder(doc)
		insts := p.Instantiate(enc, ci, 0)
		return len(insts) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
