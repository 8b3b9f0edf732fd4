package index

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// buildText builds an index over docs, kept for verified queries, with the
// text-sequence value representation.
func buildText(t testing.TB, docs []*xmltree.Document) *Index {
	t.Helper()
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	enc := pathenc.NewTextEncoder()
	ix, err := Build(docs, Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc), KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func cityDocs() []*xmltree.Document {
	return []*xmltree.Document{
		{ID: 0, Root: xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("boston")))},
		{ID: 1, Root: xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("bologna")))},
		{ID: 2, Root: xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("newyork")))},
		{ID: 3, Root: xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("bo")))},
	}
}

func TestTextExactValueQuery(t *testing.T) {
	ix := buildText(t, cityDocs())
	got, err := ix.Query(query.MustParse("/P/L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("exact text query = %v", got)
	}
	// No hash collisions possible: nearby strings never match.
	got2, err := ix.Query(query.MustParse("/P/L[text='bostom']"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 0 {
		t.Fatalf("near-miss matched: %v", got2)
	}
}

func TestTextPrefixQuery(t *testing.T) {
	ix := buildText(t, cityDocs())
	got, err := ix.Query(query.MustParse("/P/L[text='bo*']"))
	if err != nil {
		t.Fatal(err)
	}
	// boston, bologna, and "bo" itself all start with "bo".
	if !slices.Equal(got, []int32{0, 1, 3}) {
		t.Fatalf("prefix query = %v", got)
	}
	none, err := ix.Query(query.MustParse("/P/L[text='bz*']"))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("impossible prefix matched: %v", none)
	}
}

func TestTextExactIsNotPrefix(t *testing.T) {
	ix := buildText(t, cityDocs())
	// Exact "bo" must match only doc 3, not the longer values...
	got, err := ix.Query(query.MustParse("/P/L[text='bo']"))
	if err != nil {
		t.Fatal(err)
	}
	// ...but with character chains, "bo" IS a chain prefix of "boston":
	// the chain has no terminator, so exact semantics at designator level
	// are prefix semantics. This mirrors the paper's remark that the text
	// representation "will allow subsequence matching inside the attribute
	// values"; exactness comes from Verify.
	if len(got) != 3 {
		t.Fatalf("chain query = %v", got)
	}
	// Verified mode restores exact semantics.
	exact, err := ix.QueryWithContext(context.Background(), query.MustParse("/P/L[text='bo']"), QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(exact, []int32{3}) {
		t.Fatalf("verified exact = %v", exact)
	}
}

func TestAtomicPrefixPrunes(t *testing.T) {
	// With atomic values, prefix queries are unanswerable and return
	// nothing rather than garbage.
	docs := cityDocs()
	ix := buildCS(t, docs, Options{})
	got, err := ix.Query(query.MustParse("/P/L[text='bo*']"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("atomic prefix query returned %v", got)
	}
}

// Property: text-mode query equivalence against ground truth, comparing on
// canonicalized (char-chained) corpora so both sides share designator-level
// semantics. Patterns are extracted subtrees, so their values are full
// document values; chain-prefix effects (see TestTextExactIsNotPrefix) are
// visible to both sides through canonicalization.
func TestQuickTextQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(333))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		var docs []*xmltree.Document
		for i := 0; i < 10; i++ {
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTextTree(r, 4, 3)})
		}
		ix := buildText(t, docs)
		for k := 0; k < 4; k++ {
			tree := xmltreetest.RandomSubPattern(r, docs[r.Intn(len(docs))].Root)
			pat := query.FromTree(tree)
			want := groundTruth(docs, tree, ix.Encoder())
			got, err := ix.Query(pat)
			if err != nil {
				t.Logf("query error: %v", err)
				return false
			}
			if !slices.Equal(got, want) {
				t.Logf("mismatch for %s:\n got %v\nwant %v", pat, got, want)
				for _, d := range docs {
					t.Logf("doc %d: %v", d.ID, d.Root)
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
