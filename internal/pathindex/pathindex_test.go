package pathindex

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/query"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func TestBuildErrors(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 1, Root: xmltree.Figure2a()},
		{ID: 1, Root: xmltree.Figure2b()},
	}
	if _, err := Build(docs); err == nil {
		t.Fatal("duplicate ids should fail")
	}
}

func TestSimplePathNoVerification(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure2a()},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(query.MustParse("/P/D/L"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("got %v", got)
	}
	st := ix.LastStats()
	if st.Verified != 0 {
		t.Fatalf("simple path should not verify: %+v", st)
	}
	if st.Lookups != 1 {
		t.Fatalf("simple path should be one lookup: %+v", st)
	}
}

func TestValuePathLookup(t *testing.T) {
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(query.MustParse("/P/D/L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("got %v", got)
	}
	none, err := ix.Query(query.MustParse("/P/D/L[text='zurich']"))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("got %v", none)
	}
}

func TestBranchingVerifies(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure2a()}, // P(R, D(L), D(M))
		{ID: 1, Root: xmltree.Figure2c()}, // P(D(L,M))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The decomposed paths P/D/L and P/D/M exist in both docs; only the
	// verification step separates them.
	got, err := ix.Query(query.MustParse("/P/D[L][M]"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{1}) {
		t.Fatalf("got %v want [1]", got)
	}
	if ix.LastStats().Verified == 0 {
		t.Fatal("branching query should verify candidates")
	}
}

func TestWildcardAndDescendantExpansion(t *testing.T) {
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want []int32
	}{
		{"/P/*/M", []int32{0}},
		{"//N[text='GUI']", []int32{0}},
		{"/P//M[text='mary']", []int32{0}},
		{"//Z", nil},
	}
	for _, c := range cases {
		got, err := ix.Query(query.MustParse(c.q))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: got %v want %v", c.q, got, c.want)
		}
	}
}

func TestDataGuideSize(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumPaths() == 0 {
		t.Fatal("empty DataGuide")
	}
	// Identical documents: postings are 2 per path.
	if ix.NumPostings() != 2*ix.NumPaths() {
		t.Fatalf("postings = %d paths = %d", ix.NumPostings(), ix.NumPaths())
	}
}

func TestQuickPathIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		var docs []*xmltree.Document
		for i := 0; i < 10; i++ {
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(r, 4, 3)})
		}
		ix, err := Build(docs)
		if err != nil {
			return false
		}
		for k := 0; k < 4; k++ {
			src := docs[r.Intn(len(docs))].Root
			pat := query.FromTree(xmltreetest.RandomSubPattern(r, src))
			want := query.Eval(docs, pat)
			got, err := ix.Query(pat)
			if err != nil {
				return false
			}
			if !slices.Equal(got, want) {
				t.Logf("mismatch for %s: got %v want %v", pat, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
