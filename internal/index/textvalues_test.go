package index

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// buildText builds an index over docs with the text-sequence value
// representation.
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
	ix, err := Build(docs, Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc)})
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
	if !sameIDs(got, []int32{0}) {
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
	if !sameIDs(got, []int32{0, 1, 3}) {
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
	roots := cityDocs()
	ixv := buildTextVerified(t, roots)
	exact, err := ixv.QueryWithContext(context.Background(), query.MustParse("/P/L[text='bo']"), QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(exact, []int32{3}) {
		t.Fatalf("verified exact = %v", exact)
	}
}

func buildTextVerified(t testing.TB, docs []*xmltree.Document) *Index {
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
	ix, err := Build(docs, Options{
		Encoder: enc, Strategy: sequence.NewProbability(sch, enc), KeepDocuments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
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
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: randomTextTree(r, 4, 3, true)})
		}
		ix := buildText(t, docs)
		enc := ix.Encoder()
		for k := 0; k < 4; k++ {
			src := docs[r.Intn(len(docs))].Root
			patTree := randomSubPattern(r, src)
			pat := query.FromTree(patTree)
			// Ground truth on char-chained corpora with a char-chained
			// pattern.
			canonDocs := make([]*xmltree.Document, len(docs))
			for i, d := range docs {
				canonDocs[i] = &xmltree.Document{ID: d.ID, Root: sequence.CanonicalizeValues(d.Root, enc)}
			}
			canonPat := query.FromTree(sequence.CanonicalizeValues(patTree, enc))
			canonPat.Root.Axis = query.AxisChild
			want := query.Eval(canonDocs, canonPat)
			got, err := ix.Query(pat)
			if err != nil {
				t.Logf("query error: %v", err)
				return false
			}
			if !sameIDs(got, want) {
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

// randomTextTree is randomTree with multi-character values sharing
// prefixes, exercising the chain representation.
func randomTextTree(rng *rand.Rand, depth, fan int, isRoot bool) *xmltree.Node {
	labels := []string{"A", "B", "C"}
	values := []string{"a", "ab", "abc", "b", "ba", "bab"}
	var n *xmltree.Node
	if isRoot {
		n = xmltree.NewElem("R")
	} else {
		n = xmltree.NewElem(labels[rng.Intn(len(labels))])
	}
	if depth <= 1 {
		return n
	}
	k := rng.Intn(fan + 1)
	for i := 0; i < k; i++ {
		if rng.Intn(5) == 0 {
			n.Children = append(n.Children, xmltree.NewValue(values[rng.Intn(len(values))]))
		} else {
			n.Children = append(n.Children, randomTextTree(rng, depth-1, fan, false))
		}
	}
	return n
}
