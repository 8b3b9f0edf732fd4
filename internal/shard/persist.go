package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/index"
)

// Sharded snapshot format: a manifest followed by one XSEQFLAT snapshot
// per non-empty shard, all in a single file so the existing snapshot
// plumbing (atomic rename, mtime watching, hot swap) keeps working
// unchanged.
//
//	offset          size  field
//	0               8     magic "XSEQSHRD"
//	8               8     manifest length m, big-endian uint64
//	16              m     manifest: gob(manifest)
//	16+m            4     CRC-32 (IEEE) of the manifest payload, big-endian
//	20+m            L0    shard 0: an XSEQFLAT snapshot (absent when empty)
//	20+m+L0         L1    shard 1 ...
//
// The manifest records the shard count, the partition hash seed, and each
// shard's stream length and CRC-32, so corruption is attributed to the
// exact shard that carries it — a damaged shard fails the load with a
// *index.CorruptError naming the shard, and a manifest/stream mix-up is
// caught by re-checking the partitioning invariant on the decoded ids
// (every document must hash back to the shard that claims it). Each shard
// is opened in place over the bytes read, with flat's full verification;
// shards load in parallel on a GOMAXPROCS-bounded pool.

// shardMagic opens every sharded snapshot. It differs from the flat magic
// ("XSEQFLAT") in the trailing bytes, so an 8-byte sniff distinguishes the
// two formats.
var shardMagic = [8]byte{'X', 'S', 'E', 'Q', 'S', 'H', 'R', 'D'}

// IsShardedHeader reports whether the first bytes of a stream name the
// sharded snapshot format. The caller passes at least 8 bytes.
func IsShardedHeader(b []byte) bool {
	return len(b) >= len(shardMagic) && bytes.Equal(b[:len(shardMagic)], shardMagic[:])
}

// manifestVersion is the manifest format version Save writes.
const manifestVersion = 1

// maxManifestPayload bounds the manifest gob a Load will buffer; real
// manifests are a few bytes per shard.
const maxManifestPayload = int64(1) << 28 // 256 MiB

// maxShardPayload bounds one shard's stream length field, a sanity cap
// against corrupt length fields.
const maxShardPayload = int64(1) << 36 // 64 GiB

// maxShardCount bounds the shard count a manifest may declare — a sanity
// cap against corrupt count fields, far above any sensible deployment.
const maxShardCount = 1 << 16

type manifest struct {
	Version   int
	Shards    int
	Seed      uint64
	NumDocs   int
	MaxDocID  int32
	ShardLens []int64
	ShardCRCs []uint32
}

// corrupt builds the package's uniform corruption error; keeping the type
// identical to flat's means errors.As(*index.CorruptError) detects damage
// in either snapshot format.
func corrupt(format string, args ...any) *index.CorruptError {
	return &index.CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// corruptWrap is corrupt with an underlying cause attached.
func corruptWrap(err error, format string, args ...any) *index.CorruptError {
	return &index.CorruptError{Reason: fmt.Sprintf(format, args...), Err: err}
}

// Save serializes the sharded index: shards are encoded to their XSEQFLAT
// snapshots in parallel, then written behind the manifest.
func (s *Index) Save(w io.Writer) error {
	n := len(s.shards)
	streams := make([][]byte, n)
	err := runPool(context.Background(), n, 0, func(_ context.Context, i int) error {
		if s.shards[i] == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := s.shards[i].Save(&buf); err != nil {
			return fmt.Errorf("shard: save shard %d of %d: %w", i, n, err)
		}
		streams[i] = buf.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	m := manifest{
		Version:   manifestVersion,
		Shards:    n,
		Seed:      s.seed,
		NumDocs:   s.numDocs,
		MaxDocID:  s.maxDocID,
		ShardLens: make([]int64, n),
		ShardCRCs: make([]uint32, n),
	}
	for i, stream := range streams {
		m.ShardLens[i] = int64(len(stream))
		m.ShardCRCs[i] = crc32.ChecksumIEEE(stream)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&m); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:8], shardMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	for i, stream := range streams {
		if _, err := w.Write(stream); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", i, err)
		}
	}
	return nil
}

// SaveFile is Save to a file through engine.SaveFile, the one crash-safe
// snapshot writer, exactly like a single-partition SaveFile.
func (s *Index) SaveFile(path string) error {
	return engine.SaveFile(path, s.Save)
}

// readManifest consumes and validates the header and manifest (everything
// up to the first shard stream) from r.
func readManifest(r io.Reader) (*manifest, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corruptWrap(err, "truncated sharded header")
	}
	if !bytes.Equal(hdr[:8], shardMagic[:]) {
		return nil, corrupt("not a sharded index stream")
	}
	size := binary.BigEndian.Uint64(hdr[8:])
	if int64(size) < 0 || int64(size) > maxManifestPayload {
		return nil, corrupt("implausible manifest length %d", size)
	}
	var payload bytes.Buffer
	got, err := io.Copy(&payload, io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, corruptWrap(err, "unreadable manifest")
	}
	if uint64(got) != size {
		return nil, corrupt("truncated manifest: %d of %d bytes", got, size)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, corruptWrap(err, "truncated manifest checksum")
	}
	want := binary.BigEndian.Uint32(trailer[:])
	if sum := crc32.ChecksumIEEE(payload.Bytes()); sum != want {
		return nil, corrupt("manifest checksum mismatch (stored %08x, computed %08x)", want, sum)
	}
	var m manifest
	if err := gob.NewDecoder(&payload).Decode(&m); err != nil {
		return nil, corruptWrap(err, "undecodable manifest")
	}
	if m.Version != manifestVersion {
		return nil, corrupt("unsupported sharded format version %d", m.Version)
	}
	if m.Shards < 1 || m.Shards > maxShardCount {
		return nil, corrupt("implausible shard count %d", m.Shards)
	}
	if len(m.ShardLens) != m.Shards || len(m.ShardCRCs) != m.Shards {
		return nil, corrupt("manifest declares %d shards but carries %d lengths and %d checksums",
			m.Shards, len(m.ShardLens), len(m.ShardCRCs))
	}
	if m.NumDocs < 0 || m.MaxDocID < 0 {
		return nil, corrupt("negative size fields (docs %d, max id %d)", m.NumDocs, m.MaxDocID)
	}
	for i, l := range m.ShardLens {
		if l < 0 || l > maxShardPayload {
			return nil, corrupt("shard %d: implausible stream length %d", i, l)
		}
	}
	return &m, nil
}

// decodeShard validates and opens one shard's raw snapshot bytes in place,
// attributing any failure to the shard. It also re-checks the partitioning
// invariant: every document id the shard carries must hash back to this
// shard, so a manifest/stream mix-up can never silently misattribute
// documents.
func decodeShard(m *manifest, i int, raw []byte) (*index.Index, error) {
	if sum := crc32.ChecksumIEEE(raw); sum != m.ShardCRCs[i] {
		return nil, corrupt("shard %d of %d: checksum mismatch (stored %08x, computed %08x)",
			i, m.Shards, m.ShardCRCs[i], sum)
	}
	ix, err := flat.OpenBytes(raw, flat.Options{Verify: true})
	if err != nil {
		return nil, corruptWrap(err, "shard %d of %d", i, m.Shards)
	}
	ids, err := ix.CollectDocs(0, ix.MaxSerial(), nil)
	if err != nil {
		return nil, corruptWrap(err, "shard %d of %d", i, m.Shards)
	}
	for _, id := range ids {
		if id > m.MaxDocID {
			return nil, corrupt("shard %d of %d: document id %d exceeds manifest max %d",
				i, m.Shards, id, m.MaxDocID)
		}
		if ShardOf(id, m.Seed, m.Shards) != i {
			return nil, corrupt("shard %d of %d: document %d belongs to shard %d (wrong-shard stream)",
				i, m.Shards, id, ShardOf(id, m.Seed, m.Shards))
		}
	}
	return ix, nil
}

// assemble builds the Index from decoded shards and cross-checks the
// manifest's aggregate counts.
func assemble(m *manifest, shards []*index.Index) (*Index, error) {
	total := 0
	for _, sh := range shards {
		if sh != nil {
			total += sh.NumDocuments()
		}
	}
	if total != m.NumDocs {
		return nil, corrupt("manifest declares %d documents, shards carry %d", m.NumDocs, total)
	}
	return &Index{shards: shards, seed: m.Seed, numDocs: m.NumDocs, maxDocID: m.MaxDocID}, nil
}

// Load reconstructs a sharded index from a Save stream. The stream is read
// sequentially (it need not be seekable); shard decoding then runs in
// parallel. Any corruption — in the manifest or in any shard's stream — is
// reported as a *index.CorruptError naming the damaged piece; a sharded
// stream never loads with documents attributed to the wrong shard.
func Load(r io.Reader) (*Index, error) {
	m, err := readManifest(r)
	if err != nil {
		return nil, err
	}
	raws := make([][]byte, m.Shards)
	for i, l := range m.ShardLens {
		if l == 0 {
			continue
		}
		var buf bytes.Buffer
		got, err := io.Copy(&buf, io.LimitReader(r, l))
		if err != nil {
			return nil, corruptWrap(err, "shard %d of %d: unreadable stream", i, m.Shards)
		}
		if got != l {
			return nil, corrupt("shard %d of %d: truncated stream: %d of %d bytes", i, m.Shards, got, l)
		}
		raws[i] = buf.Bytes()
	}
	return loadShards(m, func(i int) ([]byte, error) { return raws[i], nil })
}

// LoadFile reconstructs a sharded index from a file written by SaveFile.
// Shards are read (io.ReaderAt sections) and decoded in parallel on a
// GOMAXPROCS-bounded pool.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	m, err := readManifest(f)
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	offs := make([]int64, m.Shards)
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	for i, l := range m.ShardLens {
		offs[i] = pos
		pos += l
	}
	if pos != fi.Size() {
		return nil, fmt.Errorf("shard: load %s: %w", path,
			corrupt("file is %d bytes, manifest accounts for %d", fi.Size(), pos))
	}
	ix, err := loadShards(m, func(i int) ([]byte, error) {
		raw := make([]byte, m.ShardLens[i])
		if _, err := f.ReadAt(raw, offs[i]); err != nil {
			return nil, corruptWrap(err, "shard %d of %d: unreadable stream", i, m.Shards)
		}
		return raw, nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	return ix, nil
}

// loadShards fetches (via read, which may do parallel file I/O) and decodes
// every non-empty shard on a bounded worker pool, then assembles the index.
func loadShards(m *manifest, read func(i int) ([]byte, error)) (*Index, error) {
	shards := make([]*index.Index, m.Shards)
	err := runPool(context.Background(), m.Shards, 0, func(_ context.Context, i int) error {
		if m.ShardLens[i] == 0 {
			return nil
		}
		raw, err := read(i)
		if err != nil {
			return err
		}
		ix, err := decodeShard(m, i, raw)
		if err != nil {
			return err
		}
		shards[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(m, shards)
}
