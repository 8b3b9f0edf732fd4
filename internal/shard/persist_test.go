package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xseq/internal/index"
	"xseq/internal/query"
)

// savedSharded builds a sharded index over an xmark corpus and returns it
// together with its Save stream.
func savedSharded(t testing.TB, nDocs, shards int) (*Index, []byte) {
	t.Helper()
	s := buildSharded(t, xmarkDocs(t, nDocs), shards, 0, false)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

func checkEqualAnswers(t *testing.T, want, got *Index) {
	t.Helper()
	if got.NumShards() != want.NumShards() || got.Seed() != want.Seed() ||
		got.NumDocuments() != want.NumDocuments() || got.MaxDocID() != want.MaxDocID() {
		t.Fatalf("reloaded geometry diverges: %d/%x/%d/%d vs %d/%x/%d/%d",
			got.NumShards(), got.Seed(), got.NumDocuments(), got.MaxDocID(),
			want.NumShards(), want.Seed(), want.NumDocuments(), want.MaxDocID())
	}
	for _, q := range xmarkQueries {
		pat := query.MustParse(q)
		a, err := want.Query(pat)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Query(pat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("%s: reloaded %v, original %v", q, b, a)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s, stream := savedSharded(t, 120, 5)
	back, err := Load(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	checkEqualAnswers(t, s, back)
}

func TestSaveFileLoadFileRoundtrip(t *testing.T) {
	s := buildSharded(t, xmarkDocs(t, 120), 5, 0, false)
	path := filepath.Join(t.TempDir(), "sharded.xseq")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if fis, _ := os.ReadDir(filepath.Dir(path)); len(fis) != 1 {
		t.Fatalf("temp files left behind: %v", fis)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEqualAnswers(t, s, back)
}

// TestRoundtripWithEmptyShards: zero-length shard slots survive persistence.
func TestRoundtripWithEmptyShards(t *testing.T) {
	s, stream := savedSharded(t, 3, 16)
	back, err := Load(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	checkEqualAnswers(t, s, back)
}

// mustCorrupt asserts Load rejects the stream with a *index.CorruptError
// whose reason contains want.
func mustCorrupt(t *testing.T, stream []byte, want string) {
	t.Helper()
	_, err := Load(bytes.NewReader(stream))
	var ce *index.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *index.CorruptError", err)
	}
	if want != "" && !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}
}

func TestLoadCorruptShardStream(t *testing.T) {
	_, stream := savedSharded(t, 80, 4)
	// Find where the shard streams start: 16-byte header + manifest + CRC.
	mlen := binary.BigEndian.Uint64(stream[8:16])
	start := 16 + int(mlen) + 4
	// Flip one byte in the middle of the shard payload region.
	bad := append([]byte(nil), stream...)
	bad[start+(len(bad)-start)/2] ^= 0x40
	mustCorrupt(t, bad, "shard")
}

func TestLoadCorruptManifest(t *testing.T) {
	_, stream := savedSharded(t, 40, 3)
	bad := append([]byte(nil), stream...)
	bad[20] ^= 0x01 // inside the manifest gob payload
	mustCorrupt(t, bad, "manifest")
}

func TestLoadBadMagic(t *testing.T) {
	_, stream := savedSharded(t, 10, 2)
	bad := append([]byte(nil), stream...)
	bad[0] = 'Y'
	mustCorrupt(t, bad, "not a sharded index")
	if IsShardedHeader(bad) {
		t.Fatal("IsShardedHeader accepted a wrong magic")
	}
	if !IsShardedHeader(stream) {
		t.Fatal("IsShardedHeader rejected a valid stream")
	}
}

func TestLoadTruncations(t *testing.T) {
	_, stream := savedSharded(t, 40, 3)
	for _, cut := range []int{0, 4, 8, 15, 16, 18, len(stream) / 2, len(stream) - 1} {
		if cut >= len(stream) {
			continue
		}
		mustCorrupt(t, stream[:cut], "")
	}
}

// TestLoadWrongShardStream forges a snapshot whose manifest and streams are
// internally consistent (lengths and CRCs match) but where two shard
// streams trade places. The CRC check passes by construction; only the
// partitioning-invariant re-check can catch it.
func TestLoadWrongShardStream(t *testing.T) {
	_, stream := savedSharded(t, 80, 4)
	mlen := binary.BigEndian.Uint64(stream[8:16])
	payload := stream[16 : 16+int(mlen)]
	var m manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		t.Fatal(err)
	}
	// Slice the shard streams out.
	pos := 16 + int(mlen) + 4
	raws := make([][]byte, m.Shards)
	for i, l := range m.ShardLens {
		raws[i] = stream[pos : pos+int(l)]
		pos += int(l)
	}
	// Swap two non-empty shards, manifest entries included.
	a, b := -1, -1
	for i, r := range raws {
		if len(r) == 0 {
			continue
		}
		if a < 0 {
			a = i
		} else {
			b = i
			break
		}
	}
	if b < 0 {
		t.Fatal("test needs two non-empty shards")
	}
	raws[a], raws[b] = raws[b], raws[a]
	m.ShardLens[a], m.ShardLens[b] = m.ShardLens[b], m.ShardLens[a]
	m.ShardCRCs[a], m.ShardCRCs[b] = m.ShardCRCs[b], m.ShardCRCs[a]
	var forged bytes.Buffer
	var np bytes.Buffer
	if err := gob.NewEncoder(&np).Encode(&m); err != nil {
		t.Fatal(err)
	}
	var hdr [16]byte
	copy(hdr[:8], shardMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(np.Len()))
	forged.Write(hdr[:])
	forged.Write(np.Bytes())
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(np.Bytes()))
	forged.Write(trailer[:])
	for _, r := range raws {
		forged.Write(r)
	}
	mustCorrupt(t, forged.Bytes(), "wrong-shard")
}

// TestLoadFileSizeMismatch: a file with trailing garbage past what the
// manifest accounts for must be rejected, not silently ignored.
func TestLoadFileSizeMismatch(t *testing.T) {
	s := buildSharded(t, xmarkDocs(t, 30), 3, 0, false)
	path := filepath.Join(t.TempDir(), "sharded.xseq")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("trailing garbage")
	f.Close()
	_, err = LoadFile(path)
	var ce *index.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *index.CorruptError", err)
	}
}

// TestLoadManifestAggregateMismatch: a manifest lying about the document
// count is rejected at assembly.
func TestLoadManifestAggregateMismatch(t *testing.T) {
	_, stream := savedSharded(t, 40, 3)
	mlen := binary.BigEndian.Uint64(stream[8:16])
	var m manifest
	if err := gob.NewDecoder(bytes.NewReader(stream[16 : 16+int(mlen)])).Decode(&m); err != nil {
		t.Fatal(err)
	}
	m.NumDocs += 7
	var np bytes.Buffer
	if err := gob.NewEncoder(&np).Encode(&m); err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	var hdr [16]byte
	copy(hdr[:8], shardMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(np.Len()))
	forged.Write(hdr[:])
	forged.Write(np.Bytes())
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(np.Bytes()))
	forged.Write(trailer[:])
	forged.Write(stream[16+int(mlen)+4:])
	mustCorrupt(t, forged.Bytes(), "documents")
}
