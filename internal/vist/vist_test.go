package vist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func build(t testing.TB, docs []*xmltree.Document) *Index {
	t.Helper()
	ix, err := Build(docs, Options{Encoder: pathenc.NewEncoder(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildRequiresEncoder(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("missing encoder should fail")
	}
}

func TestFalseAlarmEliminatedByVerification(t *testing.T) {
	ix := build(t, []*xmltree.Document{{ID: 0, Root: xmltree.Figure4D()}})
	got, err := ix.Query(query.MustParse("/P/L[S][B]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("false alarm survived verification: %v", got)
	}
	// The join phase DID produce the candidate (that is ViST's cost).
	if ix.LastStats().Candidates == 0 || ix.LastStats().Verified == 0 {
		t.Fatalf("expected join candidates and verification work: %+v", ix.LastStats())
	}
}

func TestBranchingQueryJoins(t *testing.T) {
	ix := build(t, []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure3a()},
	})
	got, err := ix.Query(query.MustParse("/P[R/M='tom'][D/M='johnson']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("got %v", got)
	}
	if ix.LastStats().JoinedDocSets == 0 {
		t.Fatal("branching query should join per-branch doc sets")
	}
}

func TestSimplePathNoJoin(t *testing.T) {
	ix := build(t, []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}})
	got, err := ix.Query(query.MustParse("/P/D/U/N"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("got %v", got)
	}
}

// Property: ViST answers agree exactly with the ground truth (after its
// verification phase), because values are verified on the original
// documents.
func TestQuickVistEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		var docs []*xmltree.Document
		for i := 0; i < 10; i++ {
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(r, 4, 3)})
		}
		ix := build(t, docs)
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
