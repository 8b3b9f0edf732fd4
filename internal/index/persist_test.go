package index

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func newTestPool(t *testing.T) *pager.Pool {
	t.Helper()
	return pager.NewPool(16)
}

func saveLoad(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var docs []*xmltree.Document
	for i := 0; i < 60; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	back := saveLoad(t, ix)

	if back.NumDocuments() != ix.NumDocuments() ||
		back.NumNodes() != ix.NumNodes() ||
		back.NumLinks() != ix.NumLinks() ||
		back.MaxSerial() != ix.MaxSerial() {
		t.Fatalf("metadata mismatch: %d/%d %d/%d %d/%d",
			back.NumDocuments(), ix.NumDocuments(),
			back.NumNodes(), ix.NumNodes(),
			back.NumLinks(), ix.NumLinks())
	}
	queries := []*query.Pattern{
		query.MustParse("//A"),
		query.MustParse("/R[A][B]"),
		query.MustParse("//C[text='A']"),
		query.MustParse("/R/*/B"),
	}
	for _, q := range queries {
		want, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %s: loaded %v want %v", q, got, want)
		}
	}
}

func TestSaveLoadWithDocuments(t *testing.T) {
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}
	ix := buildCS(t, docs, Options{KeepDocuments: true})
	back := saveLoad(t, ix)
	got, err := back.QueryWithContext(context.Background(), query.MustParse("/P/D/L[text='boston']"), QueryOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("verified query after load = %v", got)
	}
}

func TestSaveLoadTextValues(t *testing.T) {
	ix := buildText(t, cityDocs())
	back := saveLoad(t, ix)
	if !back.Encoder().TextValues() {
		t.Fatal("text-values flag lost")
	}
	got, err := back.Query(query.MustParse("/P/L[text='bo*']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0, 1, 3}) {
		t.Fatalf("prefix query after load = %v", got)
	}
}

func TestSaveRejectsNonProbabilityStrategy(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	ix, err := Build([]*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}},
		Options{Encoder: enc, Strategy: sequence.DepthFirst{Enc: enc}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err == nil {
		t.Fatal("saving a DF index should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage stream should fail")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should fail")
	}
}

func TestLoadedIndexPaged(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure3a()},
	}
	ix := buildCS(t, docs, Options{})
	back := saveLoad(t, ix)
	pool := newTestPool(t)
	if _, err := back.AttachPager(pool); err != nil {
		t.Fatal(err)
	}
	got, err := back.Query(query.MustParse("//L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("paged loaded query = %v", got)
	}
	if back.PagerStats().Reads == 0 {
		t.Fatal("no I/O recorded on loaded index")
	}
}
