package prix

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

func TestLPSStored(t *testing.T) {
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure2a()}})
	if err != nil {
		t.Fatal(err)
	}
	lps := ix.LPS(0)
	if len(lps) != xmltree.Figure2a().Size()-1 {
		t.Fatalf("LPS length = %d want %d", len(lps), xmltree.Figure2a().Size()-1)
	}
	if ix.NumPostings() == 0 {
		t.Fatal("no postings")
	}
}

func TestFilterThenRefine(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure2a()}, // P(R, D(L), D(M))
		{ID: 1, Root: xmltree.Figure2c()}, // P(D(L,M))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Query 2(c): both docs pass the label filter (same label multisets
	// modulo counts), but only doc 1 truly matches.
	got, err := ix.Query(query.MustParse("/P/D[L][M]"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{1}) {
		t.Fatalf("got %v want [1]", got)
	}
	st := ix.LastStats()
	if st.Filtered < 1 || st.Refined != st.Filtered {
		t.Fatalf("stats = %+v", st)
	}
	// Multiplicity filtering: a query needing two D's excludes 2(c)?
	// 2(c) has one D; 2(a) has two.
	got2, err := ix.Query(query.MustParse("/P[D/L][D/M]"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got2, []int32{0}) {
		t.Fatalf("got %v want [0]", got2)
	}
}

func TestWildcardWeakensFilter(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure2a()},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(query.MustParse("/P/*/M"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("got %v want [0 1]", got)
	}
}

func TestValueQueries(t *testing.T) {
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(query.MustParse("//N[text='GUI']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("got %v", got)
	}
	none, err := ix.Query(query.MustParse("//N[text='nope']"))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("got %v", none)
	}
	// The value filter prunes before refinement.
	if ix.LastStats().Refined != 0 {
		t.Fatalf("filter should have pruned: %+v", ix.LastStats())
	}
}

func TestQuickPrixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
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
