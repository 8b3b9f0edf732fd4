package index

import (
	"bytes"
	"math/rand"
	"testing"

	"xseq/internal/match"
	"xseq/internal/xmltree"
)

// forgeLink rewrites l in place with its columns passed through mut — how
// these tests damage the column view.
func forgeLink(l *match.Link, mut func(pre, max, anc []int32, embeds []bool)) {
	pre, max, anc, embeds := linkColumns(l)
	mut(pre, max, anc, embeds)
	*l = match.NewLink(make([]byte, match.LinkBytes(len(pre), false)), l.Len(), false, 0)
	fillLink(l, pre, max, anc, embeds)
}

func TestCheckInvariantsHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: randomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("healthy index failed check: %v", err)
	}
	// A loaded index passes too.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatalf("loaded index failed check: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Index {
		return buildCS(t, []*xmltree.Document{
			{ID: 0, Root: xmltree.Figure1()},
			{ID: 1, Root: xmltree.Figure4D()},
		}, Options{})
	}
	corruptions := []struct {
		name string
		mut  func(ix *Index)
	}{
		{"inverted interval", func(ix *Index) {
			for _, l := range ix.links {
				forgeLink(l, func(pre, max, _ []int32, _ []bool) { max[0] = pre[0] - 1 })
				return
			}
		}},
		{"unsorted link", func(ix *Index) {
			for _, l := range ix.links {
				if l.Len() >= 2 {
					forgeLink(l, func(pre, _, _ []int32, _ []bool) { pre[0] = pre[1] })
					return
				}
			}
		}},
		{"forward anc", func(ix *Index) {
			for _, l := range ix.links {
				forgeLink(l, func(_, _, anc []int32, _ []bool) { anc[0] = l.Len() })
				return
			}
		}},
		{"anc without embeds mark", func(ix *Index) {
			for _, l := range ix.links {
				if l.HasCover() {
					forgeLink(l, func(_, _, _ []int32, embeds []bool) { clear(embeds) })
					return
				}
			}
			t.Fatal("corpus has no link with covers")
		}},
		{"end offsets broken", func(ix *Index) {
			if len(ix.ends.offs) > 0 {
				ix.ends.offs[0] = 7
			}
		}},
		{"doc id out of range", func(ix *Index) {
			if len(ix.ends.ids) > 0 {
				ix.ends.ids[0] = ix.maxDocID + 5
			}
		}},
		{"serial out of range", func(ix *Index) {
			ix.maxSerial = 1
		}},
	}
	for _, c := range corruptions {
		ix := build()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: pre-corruption check failed: %v", c.name, err)
		}
		c.mut(ix)
		if err := ix.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}
