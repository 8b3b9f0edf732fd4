package nodeindex

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

func TestRegionLabels(t *testing.T) {
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure2a()}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumRegions() != xmltree.Figure2a().Size() {
		t.Fatalf("regions = %d want %d", ix.NumRegions(), xmltree.Figure2a().Size())
	}
	ps := ix.elems["P"]
	if len(ps) != 1 || ps[0].Level != 0 || ps[0].Start != 1 {
		t.Fatalf("P region = %+v", ps)
	}
	// P contains every other region.
	for _, r := range ix.all {
		if r != ps[0] && !ps[0].Contains(r) {
			t.Fatalf("P does not contain %+v", r)
		}
	}
}

func TestStructuralJoinQueries(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure2a()},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want []int32
	}{
		{"/P/D/L", []int32{0, 1}},
		{"/P/D/L[text='boston']", []int32{0}},
		{"/P//N", []int32{0}},
		{"/P/N", nil}, // child axis excludes the deep N
		{"/P/*/M", []int32{0, 1}},
		{"//U/N[text='engine']", []int32{0}},
	}
	for _, c := range cases {
		got, err := ix.Query(query.MustParse(c.q))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s: got %v want %v", c.q, got, c.want)
		}
		if ix.LastStats().ScannedRegions == 0 {
			t.Fatalf("%s: no join work recorded", c.q)
		}
	}
}

func TestInjectiveWitnesses(t *testing.T) {
	ix, err := Build([]*xmltree.Document{
		{ID: 0, Root: xmltree.Figure2a()}, // two D's
		{ID: 1, Root: xmltree.Figure2c()}, // one D over L and M
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(query.MustParse("/P[D/L][D/M]"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("two D branches: got %v want [0]", got)
	}
	got2, err := ix.Query(query.MustParse("/P/D[L][M]"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got2, []int32{1}) {
		t.Fatalf("one D over both: got %v want [1]", got2)
	}
}

func TestQuickNodeIndexEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
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
