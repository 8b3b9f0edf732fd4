package index

import (
	"bytes"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

func TestAccessors(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure3a()},
	}
	ix := buildCS(t, docs, Options{KeepDocuments: true})
	if ix.Strategy() == nil || ix.Strategy().Name() != "constraint" {
		t.Fatalf("Strategy = %v", ix.Strategy())
	}
	if ix.Encoder() == nil || ix.ChildIdx() == nil {
		t.Fatal("Encoder/ChildIdx nil")
	}
	if got := len(ix.Documents()); got != 2 {
		t.Fatalf("Documents = %d", got)
	}
	// Root path link has exactly one entry covering everything.
	P, ok := ix.Encoder().LookupElementSymbol("P")
	if !ok {
		t.Fatal("P not interned")
	}
	rootPath := ix.Encoder().Lookup(pathenc.EmptyPath, P)
	root := ix.Link(rootPath)
	if root.Len() != 1 || root.Pre(0) != 1 || root.Max(0) != ix.MaxSerial() {
		t.Fatalf("root link: %d entries, first [%d,%d] (max serial %d)", root.Len(), root.Pre(0), root.Max(0), ix.MaxSerial())
	}
	if k := root.LowerBound(ix.MaxSerial() + 1); k != root.Len() {
		t.Fatalf("LowerBound past the last label = %d", k)
	}
	all, err := ix.CollectDocs(0, ix.MaxSerial(), nil)
	if err != nil || len(all) != 2 {
		t.Fatalf("CollectDocs = %v, %v", all, err)
	}
}

func TestLoadTruncatedStream(t *testing.T) {
	ix := buildCS(t, []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}, Options{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated stream at %d bytes loaded", cut)
		}
	}
	// The intact stream still loads after all those failures.
	back, err := Load(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back.Query(query.MustParse("/P")); len(got) != 1 {
		t.Fatalf("reload query = %v", got)
	}
}

func TestQueryUnknownPaths(t *testing.T) {
	ix := buildCS(t, []*xmltree.Document{{ID: 0, Root: xmltree.Figure1()}}, Options{})
	// Queries for paths outside the corpus return empty, not errors.
	got, err := ix.Query(query.MustParse("/nothing/here"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
