package xseq

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// snapshotSection returns section id of an XSEQFLAT snapshot: the section
// table starts at byte 24, one {id, crc uint32; offset, length uint64} row
// per section.
func snapshotSection(t *testing.T, snap []byte, id int) []byte {
	t.Helper()
	row := snap[24+(id-1)*24:]
	if got := binary.LittleEndian.Uint32(row); got != uint32(id) {
		t.Fatalf("section table row %d holds id %d", id, got)
	}
	off, n := binary.LittleEndian.Uint64(row[8:]), binary.LittleEndian.Uint64(row[16:])
	return snap[off : off+n]
}

// TestBuildOrderIndependent: the trie sorts the constraint sequences before
// it creates a node, so a corpus and a shuffled copy of it, sequenced over
// one path table, build the same index — the same answers, the same work
// for every query, and byte-identical path links (LINKDIR and LINKS). The
// path table is shared because it numbers paths in the order documents
// first show them; Build, which interns a fresh one, gives the same
// answers either way.
func TestBuildOrderIndependent(t *testing.T) {
	_, inner, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 7}, 300)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(inner)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	roots := make([]*xmltree.Node, len(inner))
	for i, d := range inner {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		t.Fatal(err)
	}
	enc := pathenc.NewEncoder(0)
	st := sequence.NewProbability(sch, enc)
	var snaps [2][]byte
	var ixs, public [2]*Index
	for i, corpus := range [][]*xmltree.Document{inner, shuffled} {
		built, err := index.Build(corpus, index.Options{Encoder: enc, Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		ixs[i] = newIndex(built)
		var buf bytes.Buffer
		if err := built.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[i] = buf.Bytes()
		docs := make([]*Document, len(corpus))
		for j, d := range corpus {
			docs[j] = &Document{id: d.ID, root: d.Root}
		}
		if public[i], err = Build(docs, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		datagen.XMarkQ1,
		datagen.XMarkQ2,
		datagen.XMarkQ3,
		"/site/people/person/profile[interest][interest]",
		"//person/watches[watch][watch]",
		"//item/location",
		"/site/*",
	} {
		want, wantEx, err := ixs[0].QueryExplain(q)
		if err != nil {
			t.Fatal(err)
		}
		got, gotEx, err := ixs[1].QueryExplain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || gotEx != wantEx {
			t.Errorf("%s: shuffled build gives %d ids, %+v; want %d ids, %+v", q, len(got), gotEx, len(want), wantEx)
		}
		for i, ix := range public {
			if ids, err := ix.Query(q); err != nil || !slices.Equal(ids, want) {
				t.Errorf("%s: Build over corpus %d gives %d ids (%v), want %d", q, i, len(ids), err, len(want))
			}
		}
	}
	for id, name := range map[int]string{1: "LINKDIR", 2: "LINKS"} {
		if !bytes.Equal(snapshotSection(t, snaps[0], id), snapshotSection(t, snaps[1], id)) {
			t.Errorf("%s differs between the corpus and its shuffled copy", name)
		}
	}
}
