package sequence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func TestTextEncodeChains(t *testing.T) {
	enc := pathenc.NewTextEncoder()
	tree := xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("bos")))
	nodes := EncodeNodes(tree, enc)
	// P, L, then one node per character: b, o, s — 5 total.
	if len(nodes) != 5 {
		t.Fatalf("encoded %d nodes, want 5", len(nodes))
	}
	if got := enc.PathString(nodes[4].Path); got != "P.L.b.o.s" {
		t.Fatalf("leaf path = %q", got)
	}
	// The chain nests: each char is the child of the previous.
	if nodes[3].Parent != 2 || nodes[4].Parent != 3 {
		t.Fatalf("chain parents = %d %d", nodes[3].Parent, nodes[4].Parent)
	}
	// Empty values still fall back to one atomic designator.
	tree2 := xmltree.NewElem("P", xmltree.NewValue(""))
	nodes2 := EncodeNodes(tree2, enc)
	if len(nodes2) != 2 {
		t.Fatalf("empty value encoded %d nodes", len(nodes2))
	}
}

func TestTextIdenticalSiblingDetection(t *testing.T) {
	enc := pathenc.NewTextEncoder()
	// Two sibling values sharing a first character are identical siblings
	// at the chain head.
	tree := xmltree.NewElem("P", xmltree.NewValue("bat"), xmltree.NewValue("bus"))
	if !HasIdenticalSiblings(tree, enc) {
		t.Fatal("shared first characters should be identical siblings")
	}
	tree2 := xmltree.NewElem("P", xmltree.NewValue("bat"), xmltree.NewValue("cat"))
	if HasIdenticalSiblings(tree2, enc) {
		t.Fatal("distinct first characters are not identical siblings")
	}
}

func TestTextCanonicalize(t *testing.T) {
	enc := pathenc.NewTextEncoder()
	tree := xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue("bo")))
	canon := CanonicalizeValues(tree, enc)
	// L's child becomes a chain "b"("o").
	l := canon.Children[0]
	if len(l.Children) != 1 || l.Children[0].Value != "b" {
		t.Fatalf("canonical chain head = %v", canon)
	}
	if len(l.Children[0].Children) != 1 || l.Children[0].Children[0].Value != "o" {
		t.Fatalf("canonical chain tail = %v", canon)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	enc := pathenc.NewTextEncoder()
	strategies := []Strategy{
		DepthFirst{Enc: enc},
		NewRandom(enc, 5),
		NewProbability(schema.Figure12(), enc),
	}
	rng := rand.New(rand.NewSource(60))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		tree := xmltreetest.RandomSubtree(r, 4, 3)
		want := CanonicalizeValues(tree, enc)
		for _, g := range strategies {
			seq := g.Sequence(tree)
			back, err := Decode(enc, seq)
			if err != nil {
				t.Logf("%s: decode: %v for %v", g.Name(), err, tree)
				return false
			}
			if !xmltree.Isomorphic(back, want) {
				t.Logf("%s: round trip mismatch:\ntree %v\nback %v\nwant %v", g.Name(), tree, back, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
