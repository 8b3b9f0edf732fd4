package index

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// buildCS builds a probability-strategy index over docs, inferring the
// schema from the corpus itself.
func buildCS(t testing.TB, docs []*xmltree.Document, opts Options) *Index {
	t.Helper()
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Encoder == nil {
		opts.Encoder = pathenc.NewEncoder(1 << 20)
	}
	if opts.Strategy == nil {
		opts.Strategy = sequence.NewProbability(sch, opts.Encoder)
	}
	ix, err := Build(docs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// groundTruth answers the pattern tree p over docs with the tree-pattern
// matcher at the designator level the index works at: documents and
// pattern with their values canonicalised as enc encodes them.
func groundTruth(docs []*xmltree.Document, p *xmltree.Node, enc *pathenc.Encoder) []int32 {
	canon := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		canon[i] = &xmltree.Document{ID: d.ID, Root: sequence.CanonicalizeValues(d.Root, enc)}
	}
	return query.Eval(canon, query.FromTree(sequence.CanonicalizeValues(p, enc)))
}

func TestBuildErrors(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	st := sequence.DepthFirst{Enc: enc}
	if _, err := Build(nil, Options{Strategy: st}); err == nil {
		t.Fatal("missing encoder should fail")
	}
	if _, err := Build(nil, Options{Encoder: enc}); err == nil {
		t.Fatal("missing strategy should fail")
	}
	docs := []*xmltree.Document{
		{ID: 1, Root: xmltree.Figure2a()},
		{ID: 1, Root: xmltree.Figure2b()},
	}
	if _, err := Build(docs, Options{Encoder: enc, Strategy: st}); err == nil {
		t.Fatal("duplicate ids should fail")
	}
	if _, err := Build([]*xmltree.Document{{ID: -2, Root: xmltree.Figure2a()}},
		Options{Encoder: enc, Strategy: st}); err == nil {
		t.Fatal("negative id should fail")
	}
}

func TestBuildCounts(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure1()},
	}
	ix := buildCS(t, docs, Options{})
	if ix.NumDocuments() != 2 {
		t.Fatalf("NumDocuments = %d", ix.NumDocuments())
	}
	// Identical documents share their entire chain.
	if ix.NumNodes() != xmltree.Figure1().Size() {
		t.Fatalf("NumNodes = %d want %d", ix.NumNodes(), xmltree.Figure1().Size())
	}
	if ix.NumLinks() == 0 {
		t.Fatal("no links built")
	}
}

func TestQueryRequiresPriority(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}
	ix, err := Build(docs, Options{Encoder: enc, Strategy: sequence.DepthFirst{Enc: enc}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(query.MustParse("/P")); err == nil {
		t.Fatal("depth-first strategy should be rejected for querying")
	}
}

func TestFalseAlarmEliminated(t *testing.T) {
	// Figure 4: data P(L(S), L(B)); query P(L(S,B)).
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure4D()}}
	ix := buildCS(t, docs, Options{})
	pat := query.MustParse("/P/L[S][B]")

	constraint, err := ix.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(constraint) != 0 {
		t.Fatalf("constraint match returned false alarm: %v", constraint)
	}
	naive, err := ix.QueryWithContext(context.Background(), pat, QueryOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(naive, []int32{0}) {
		t.Fatalf("naive match should produce the false alarm; got %v", naive)
	}
}

func TestTrueMatchesSurviveConstraint(t *testing.T) {
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure4D()}}
	ix := buildCS(t, docs, Options{})
	for _, q := range []string{"/P/L/S", "/P/L/B", "/P[L/S][L/B]"} {
		got, err := ix.Query(query.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []int32{0}) {
			t.Fatalf("query %s = %v want [0]", q, got)
		}
	}
}

func TestVerifiedQuery(t *testing.T) {
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}
	ix := buildCS(t, docs, Options{KeepDocuments: true})
	got, err := ix.QueryWithContext(context.Background(), query.MustParse("/P/D/L[text='boston']"), QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("verified query = %v", got)
	}
	// Verify without KeepDocuments errors.
	ix2 := buildCS(t, docs, Options{})
	if _, err := ix2.QueryWithContext(context.Background(), query.MustParse("/P"), QueryOptions{Verify: true}); err == nil {
		t.Fatal("Verify without KeepDocuments should fail")
	}
}

func TestLinkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var docs []*xmltree.Document
	for i := 0; i < 40; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	covers := 0
	for p := pathenc.PathID(0); int(p) < ix.Encoder().NumPaths(); p++ {
		l := ix.Link(p)
		for i := int32(0); i < l.Len(); i++ {
			if i > 0 && l.Pre(i-1) >= l.Pre(i) {
				t.Fatalf("link %s not sorted", ix.Encoder().PathString(p))
			}
			if l.Pre(i) > l.Max(i) {
				t.Fatalf("link %s entry %d inverted interval", ix.Encoder().PathString(p), i)
			}
			if a := l.Anc(i); a >= 0 {
				covers++
				if a >= i {
					t.Fatalf("anc points forward")
				}
				if !(l.Pre(a) < l.Pre(i) && l.Max(a) >= l.Max(i)) {
					t.Fatalf("anc does not contain entry")
				}
				if !l.Embeds(a) {
					t.Fatalf("ancestor not marked embeds")
				}
			}
		}
	}
	if covers == 0 {
		t.Fatal("corpus exercised no cover metadata")
	}
}

// TestQuickQueryEquivalence is the library's central property: for random
// corpora with abundant identical siblings and random extracted patterns,
// constraint matching agrees exactly with the ground-truth structural
// evaluator — query equivalence (Theorem 2) plus the isomorphism
// enumeration remedy.
func TestQuickQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		var docs []*xmltree.Document
		for i := 0; i < 12; i++ {
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(r, 4, 3)})
		}
		ix := buildCS(t, docs, Options{})
		for k := 0; k < 6; k++ {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNaiveSuperset: the naive mode is a superset of the constraint
// answers (false alarms only, never dismissals relative to the constraint
// engine).
func TestQuickNaiveSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		var docs []*xmltree.Document
		for i := 0; i < 10; i++ {
			docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(r, 4, 3)})
		}
		ix := buildCS(t, docs, Options{})
		for k := 0; k < 4; k++ {
			pat := query.FromTree(xmltreetest.RandomSubPattern(r, docs[r.Intn(len(docs))].Root))
			strict, err := ix.Query(pat)
			if err != nil {
				return false
			}
			naive, err := ix.QueryWithContext(context.Background(), pat, QueryOptions{Naive: true})
			if err != nil {
				return false
			}
			for _, id := range strict {
				if !slices.Contains(naive, id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPagedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var docs []*xmltree.Document
	for i := 0; i < 200; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	// A pool smaller than the image: the LRU path, which evicts.
	pool := pager.NewPool(2)
	pages, err := ix.AttachPager(pool)
	if err != nil {
		t.Fatal(err)
	}
	if pages <= 2 || pages != ix.TotalPages() {
		t.Fatalf("pages = %d of %d, want more than the pool holds", pages, ix.TotalPages())
	}
	pat := query.MustParse("//A")
	if _, err := ix.Query(pat); err != nil {
		t.Fatal(err)
	}
	s := ix.PagerStats()
	if s.Reads == 0 || s.Misses == 0 {
		t.Fatalf("paged query did no I/O: %+v", s)
	}
	// Warm rerun: fewer misses than cold.
	ix.ResetPagerStats()
	if _, err := ix.Query(pat); err != nil {
		t.Fatal(err)
	}
	warm := ix.PagerStats()
	ix.DropPagerCache()
	if _, err := ix.Query(pat); err != nil {
		t.Fatal(err)
	}
	cold := ix.PagerStats()
	if warm.Misses > cold.Misses {
		t.Fatalf("warm misses %d > cold misses %d", warm.Misses, cold.Misses)
	}
	// Paged results identical to unpaged.
	ix.DetachPager()
	if ix.PagerStats() != (pager.Stats{}) {
		t.Fatal("detached stats should be zero")
	}
	unpaged, _ := ix.Query(pat)
	pool2 := pager.NewPool(2)
	if _, err := ix.AttachPager(pool2); err != nil {
		t.Fatal(err)
	}
	paged, _ := ix.Query(pat)
	if !slices.Equal(unpaged, paged) {
		t.Fatal("paged and unpaged results differ")
	}
}

// TestInsertionOrderEquivalent: the trie sorts the sequences, so a corpus
// built in reverse order gives the same trie and the same answers.
func TestInsertionOrderEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	enc := pathenc.NewEncoder(1 << 20)
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	st := sequence.NewProbability(sch, enc)
	a, err := Build(docs, Options{Encoder: enc, Strategy: st})
	if err != nil {
		t.Fatal(err)
	}
	rev := slices.Clone(docs)
	slices.Reverse(rev)
	b, err := Build(rev, Options{Encoder: enc, Strategy: st})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("insertion order changed node count: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	pat := query.MustParse("//B")
	ra, _ := a.Query(pat)
	rb, _ := b.Query(pat)
	if !slices.Equal(ra, rb) {
		t.Fatalf("insertion order changed answers: %v vs %v", ra, rb)
	}
}
