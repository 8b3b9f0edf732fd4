package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"xseq/internal/query"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// savedStream builds a small index and returns its Save stream.
func savedStream(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var docs []*xmltree.Document
	for i := 0; i < 8; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 3, 3)})
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

// TestLoadV1Compat: the gob snapshot formats — the XSEQIDX2 frame (magic,
// length, gob payload, CRC-32) and before it a bare gob payload — are no
// longer read. Such a stream is corrupt input, not a panic, and an
// XSEQIDX2 stream is named so that its owner knows to rebuild.
func TestLoadV1Compat(t *testing.T) {
	var old bytes.Buffer
	old.WriteString("XSEQIDX2")
	payload := []byte("a gob payload from a retired format")
	old.Write(binary.BigEndian.AppendUint64(nil, uint64(len(payload))))
	old.Write(payload)
	old.Write(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	var ce *CorruptError
	if _, err := Load(&old); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "XSEQIDX2") || !strings.Contains(ce.Reason, "rebuild") {
		t.Fatalf("Load(XSEQIDX2 stream) = %v, want *CorruptError naming the format", err)
	}
	if _, err := Load(bytes.NewReader(payload)); !errors.As(err, &ce) {
		t.Fatalf("Load(bare gob) = %v, want *CorruptError", err)
	}
}

// TestLoadRejectsDuplicateLink: a stream whose link directory names one
// link's bytes for two paths — every checksum recomputed, so only the
// structure can tell — is corrupt, not two aliased links.
func TestLoadRejectsDuplicateLink(t *testing.T) {
	stream := savedStream(t)
	// The section table follows the 24-byte header, one 24-byte row
	// {id, crc, offset, length} per section; LINKDIR is the first section
	// and holds one 16-byte row per path.
	table := stream[24 : 24+6*24]
	dir := stream[binary.LittleEndian.Uint64(table[8:]):]
	dir = dir[:binary.LittleEndian.Uint64(table[16:])]
	var rows [][]byte
	for p := 0; len(rows) < 2; p++ {
		if row := dir[16*p : 16*p+16]; binary.LittleEndian.Uint32(row) > 0 {
			rows = append(rows, row)
		}
	}
	copy(rows[1], rows[0])
	binary.LittleEndian.PutUint32(table[4:], crc32.ChecksumIEEE(dir))
	binary.LittleEndian.PutUint32(stream[24+len(table):], crc32.ChecksumIEEE(stream[:24+len(table)]))
	var ce *CorruptError
	if _, err := Load(bytes.NewReader(stream)); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "overlaps another link") {
		t.Fatalf("Load = %v, want *CorruptError (link overlaps another link)", err)
	}
}
