package index

import (
	"bytes"
	"math/rand"
	"testing"

	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

func TestCheckInvariantsHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var docs []*xmltree.Document
	for i := 0; i < 50; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
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
