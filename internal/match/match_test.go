package match_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/index"
	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// layout is what both storage layouts are to these tests: a query entry
// point plus the seam the kernel reads through.
type layout interface {
	QueryWithContext(context.Context, *query.Pattern, engine.QueryOptions) ([]int32, error)
	match.Layout
}

// buildLayouts indexes an XMark-like corpus with identical siblings (the
// shape that exercises the sibling-cover test) on the heap and converts it
// to a flat snapshot opened without bulk checksums, as a server maps it.
func buildLayouts(t *testing.T) (heap *index.Index, fl *flat.Index, paths int) {
	t.Helper()
	_, docs, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 3}, 400)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	enc := pathenc.NewEncoder(0)
	heap, err = index.Build(docs, index.Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc)})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := heap.Export()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flat.Write(&buf, ex); err != nil {
		t.Fatal(err)
	}
	if fl, err = flat.OpenBytes(buf.Bytes(), flat.Options{}); err != nil {
		t.Fatal(err)
	}
	return heap, fl, enc.NumPaths()
}

var patterns = []string{
	"/site/people/person/profile[interest][interest]",
	"/site/people/person/profile[interest[text='category3']][interest]",
	"/site/people/person/*[interest[text='category1']][interest[text='category7']]",
	"/site/regions/namerica/item[incategory][incategory[text='category2']]",
	"//open_auctions/open_auction[bidder/time][bidder/increase[text='1.50']]",
	"//person/watches[watch][watch]",
	datagen.XMarkQ1,
	datagen.XMarkQ2,
	"//item/location",
	"/site/*",
}

// TestLayoutsAgree: one kernel means one answer and one amount of work. For
// every pattern and mode the heap-built view and the flat-opened view must
// return the same ids (or the same error) and identical QueryStats.
func TestLayoutsAgree(t *testing.T) {
	heap, fl, _ := buildLayouts(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	modes := []struct {
		name string
		ctx  context.Context
		qo   engine.QueryOptions
		err  error
	}{
		{"plain", context.Background(), engine.QueryOptions{}, nil},
		{"naive", context.Background(), engine.QueryOptions{Naive: true}, nil},
		{"limit", context.Background(), engine.QueryOptions{MaxResults: 2}, nil},
		{"cancelled", cancelled, engine.QueryOptions{}, context.Canceled},
	}
	covered := false
	for _, q := range patterns {
		pat := query.MustParse(q)
		for _, m := range modes {
			var hs, fs engine.QueryStats
			m.qo.Stats = &hs
			want, herr := heap.QueryWithContext(m.ctx, pat, m.qo)
			m.qo.Stats = &fs
			got, ferr := fl.QueryWithContext(m.ctx, pat, m.qo)
			if !errors.Is(herr, m.err) || !errors.Is(ferr, m.err) {
				t.Fatalf("%s %s: errors heap %v, flat %v, want %v", m.name, q, herr, ferr, m.err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: flat %v, heap %v", m.name, q, got, want)
			}
			if hs != fs {
				t.Errorf("%s %s: stats flat %+v, heap %+v", m.name, q, fs, hs)
			}
			if m.name == "limit" && len(want) > 2 {
				t.Errorf("limit %s: %d ids", q, len(want))
			}
			covered = covered || hs.CoverRejections > 0
		}
	}
	if !covered {
		t.Fatal("no pattern exercised a sibling-cover rejection")
	}
}

// TestForgedAncIsCorruption: an anc chain that does not strictly decrease —
// a flipped byte in a mapped file, or heap memory gone bad — must end the
// query with *CorruptError on either layout, never a hang or a panic.
func TestForgedAncIsCorruption(t *testing.T) {
	heap, fl, paths := buildLayouts(t)
	for name, l := range map[string]layout{"heap": heap, "flat": fl} {
		forged := 0
		for p := 0; p < paths; p++ {
			link := l.Link(pathenc.PathID(p))
			for k := int32(0); k < link.Len(); k++ {
				if link.Anc(k) >= 0 {
					link.SetAnc(k, k)
					forged++
				}
			}
		}
		if forged == 0 {
			t.Fatalf("%s: corpus has no cover metadata to forge", name)
		}
		caught := 0
		for _, q := range patterns {
			_, err := l.QueryWithContext(context.Background(), query.MustParse(q), engine.QueryOptions{})
			var ce *match.CorruptError
			if errors.As(err, &ce) {
				caught++
			} else if err != nil {
				t.Errorf("%s %s: error %v, want *CorruptError", name, q, err)
			}
		}
		if caught == 0 {
			t.Errorf("%s: no query followed a forged anc pointer", name)
		}
	}
}
