package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
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

// decodePayload strips the framing of a Save stream — magic+length header
// (16 bytes) and CRC trailer (4 bytes) — and decodes the gob payload.
func decodePayload(t *testing.T, data []byte) persistedIndex {
	t.Helper()
	var p persistedIndex
	if err := gob.NewDecoder(bytes.NewReader(data[16 : len(data)-4])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadV1Compat: the v1 format (a bare gob payload, no magic, length or
// checksum) is no longer loadable — nothing has written it since the v2
// framing was introduced. Such a stream is corrupt input, not a panic.
func TestLoadV1Compat(t *testing.T) {
	p := decodePayload(t, savedStream(t))
	p.Version = 1
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&p); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Load(&v1); !errors.As(err, &ce) || ce.Reason != "not an index stream" {
		t.Fatalf("Load(bare gob) = %v, want *CorruptError (not an index stream)", err)
	}
}

// TestLoadRejectsDuplicateLink: a decodable stream naming one path's link
// twice (with different lengths, which would index past the shorter one) is
// corrupt, not a panic.
func TestLoadRejectsDuplicateLink(t *testing.T) {
	p := decodePayload(t, savedStream(t))
	p.Links = append(p.Links, persistedLink{Path: p.Links[0].Path})
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		t.Fatal(err)
	}
	// Reframe so the damage sits behind a valid length and checksum.
	stream := append([]byte(nil), persistMagic[:]...)
	stream = binary.BigEndian.AppendUint64(stream, uint64(payload.Len()))
	stream = append(stream, payload.Bytes()...)
	stream = binary.BigEndian.AppendUint32(stream, crc32.ChecksumIEEE(payload.Bytes()))
	var ce *CorruptError
	if _, err := Load(bytes.NewReader(stream)); !errors.As(err, &ce) || !strings.HasSuffix(ce.Reason, "appears twice") {
		t.Fatalf("Load = %v, want *CorruptError (link appears twice)", err)
	}
}
