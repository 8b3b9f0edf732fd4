package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"

	"xseq/internal/query"
	"xseq/internal/xmltree"
)

// savedStream builds a small index and returns its v2 Save stream.
func savedStream(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var docs []*xmltree.Document
	for i := 0; i < 8; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: randomTree(rng, 3, 3)})
	}
	docs = append(docs, &xmltree.Document{ID: 8, Root: xmltree.Figure1()})
	ix := buildCS(t, docs, Options{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad drives Load with mutated Save streams: every input must yield an
// index or an error, never a panic, and an accepted index must pass its own
// invariant check and answer a query.
func FuzzLoad(f *testing.F) {
	data := savedStream(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:17])
	f.Add(data[:8])
	f.Add([]byte("XSEQIDX2"))
	f.Add([]byte("garbage that is clearly not an index"))
	f.Add([]byte{})
	// A few deterministic single-bit corruptions in header, payload, trailer.
	for _, i := range []int{0, 70, 8 * 20, 8 * (len(data) - 2)} {
		flipped := append([]byte(nil), data...)
		flipped[(i/8)%len(flipped)] ^= 1 << (i % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		ix, err := Load(bytes.NewReader(stream))
		if err != nil {
			return
		}
		if ix == nil {
			t.Fatal("nil index with nil error")
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("accepted index violates invariants: %v", err)
		}
		if _, err := ix.Query(query.MustParse("//A")); err != nil {
			t.Fatalf("accepted index cannot answer a query: %v", err)
		}
	})
}

// TestLoadV1Compat re-encodes a current payload as a legacy v1 stream (bare
// gob, no header or checksum) and checks Load still accepts it and answers
// queries identically.
func TestLoadV1Compat(t *testing.T) {
	data := savedStream(t)
	// Strip the v2 framing: magic+length header (16 bytes) and CRC trailer
	// (4 bytes) leave the bare gob payload.
	payload := data[16 : len(data)-4]
	var p persistedIndex
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	p.Version = 1
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&p); err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(&v1)
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	current, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//A", "/R[A][B]", "//L[text='boston']"} {
		pat := query.MustParse(q)
		want, err := current.Query(pat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := legacy.Query(pat)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("query %s: v1 %v, v2 %v", q, got, want)
		}
	}
}

// TestLoadRejectsDuplicateLink: a decodable stream naming one path's link
// twice (with different lengths, which would index past the shorter one) is
// corrupt, not a panic.
func TestLoadRejectsDuplicateLink(t *testing.T) {
	data := savedStream(t)
	var p persistedIndex
	if err := gob.NewDecoder(bytes.NewReader(data[16 : len(data)-4])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	p.Version = 1
	p.Links = append(p.Links, persistedLink{Path: p.Links[0].Path})
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&p); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Load(&v1); !errors.As(err, &ce) {
		t.Fatalf("Load = %v, want *CorruptError", err)
	}
}
