package sequence

import (
	"math/rand"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// checkBlocking checks g_best's blocking over the schema Infer draws from
// roots against the corpus scan RepeatPaths: it blocks every path the scan
// finds, and an element path only when the scan finds it. A value path
// may block beyond the scan: a mixed-content element's values block though
// no two of them coincide.
func checkBlocking(t *testing.T, roots []*xmltree.Node, enc *pathenc.Encoder) {
	t.Helper()
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	s := NewProbability(sch, enc)
	scan := RepeatPaths(roots, enc)
	for p := pathenc.EmptyPath + 1; int(p) < enc.NumPaths(); p++ {
		blocks := s.Blocks(p)
		element := enc.SymbolKind(enc.LastSymbol(p)) == pathenc.KindElement
		if scan[p] && !blocks || element && blocks && !scan[p] {
			t.Fatalf("path %s: blocks %v, scan %v\nschema:\n%s", enc.PathString(p), blocks, scan[p], sch)
		}
	}
}

// FuzzSchemaBlocking checks the blocking rule on random corpora of up to
// 12 documents with mixed content, hashed into a small value space (so
// distinct values collide) or spelled out as characters (so values share
// first characters). Hashed corpora have random root labels, which gives
// forest schemas.
func FuzzSchemaBlocking(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*3), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, text bool) {
		rng := rand.New(rand.NewSource(seed))
		roots := make([]*xmltree.Node, 1+int(n)%12)
		for i := range roots {
			if text {
				roots[i] = xmltreetest.RandomTextTree(rng, 4, 4)
			} else {
				roots[i] = xmltreetest.RandomSubtree(rng, 4, 4)
			}
		}
		enc := pathenc.NewEncoder(4)
		if text {
			enc = pathenc.NewTextEncoder()
		}
		checkBlocking(t, roots, enc)
	})
}

// TestSchemaBlockingMixedContent pins the value rule on one element with
// values "ab", "ac" and "b": in text mode the shared first character a is
// what the scan finds, and b blocks beside it; in hashed mode the three
// distinct values block though the scan finds none.
func TestSchemaBlockingMixedContent(t *testing.T) {
	doc := xmltree.NewElem("r", xmltree.NewValue("ab"), xmltree.NewElem("e"), xmltree.NewValue("ac"), xmltree.NewValue("b"))
	for _, text := range []bool{false, true} {
		enc := pathenc.NewEncoder(0)
		if text {
			enc = pathenc.NewTextEncoder()
		}
		roots := []*xmltree.Node{doc, xmltree.NewElem("r", xmltree.NewValue("c"))}
		checkBlocking(t, roots, enc)
		sch, err := schema.Infer(roots)
		if err != nil {
			t.Fatal(err)
		}
		s := NewProbability(sch, enc)
		blocked := 0
		for p := pathenc.EmptyPath + 1; int(p) < enc.NumPaths(); p++ {
			if s.Blocks(p) {
				blocked++
			}
		}
		// Text: a and b under r, and c; the chains' second characters
		// never block. Hashed: ab, ac, b and c.
		if want := map[bool]int{false: 4, true: 3}[text]; blocked != want {
			t.Fatalf("text %v: %d paths block, want %d", text, blocked, want)
		}
	}
}
