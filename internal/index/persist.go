package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"xseq/internal/engine"
	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// Persistence: a built index serializes to a single stream carrying the
// designator/path tables, the path links with their sibling-cover metadata,
// the flattened document-id lists, the schema the sequencing strategy was
// derived from, and the corpus repeat set. Load reconstructs a query-ready
// index — the trie itself is not stored: queries need only the links and
// labels, and a built index drops its trie once those are derived.
//
// On-disk format v2 (the format Save writes):
//
//	offset  size  field
//	0       8     magic "XSEQIDX2"
//	8       8     payload length, big-endian uint64
//	16      n     payload: gob(persistedIndex)
//	16+n    4     CRC-32 (IEEE) of the payload, big-endian uint32
//
// Truncation is caught by the length field, bit flips by the checksum, a
// stream that does not open with the magic is not an index at all, and all
// three are reported as *CorruptError.

// persistVersion is the format version Save writes.
const persistVersion = 2

// persistMagic opens every stream Save writes.
var persistMagic = [8]byte{'X', 'S', 'E', 'Q', 'I', 'D', 'X', '2'}

// maxPersistPayload caps how large a stream Load will buffer (a sanity
// bound against corrupt or hostile length fields, far above any real
// index).
const maxPersistPayload = int64(1) << 36 // 64 GiB

// CorruptError reports that a Save stream failed validation: truncated,
// bit-flipped, checksum mismatch, undecodable, or structurally
// inconsistent. Use errors.As to detect it. The definition lives with the
// match kernel, which reports corrupt mapped data the same way.
type CorruptError = match.CorruptError

type persistedLink struct {
	Path   pathenc.PathID
	Pre    []int32
	Max    []int32
	Anc    []int32
	Embeds []bool
}

type persistedIndex struct {
	Version   int
	Encoder   pathenc.Snapshot
	Schema    *schema.Node
	Repeat    []pathenc.PathID
	Links     []persistedLink
	EndPres   []int32
	EndOffs   []int32
	EndLens   []int32
	EndIDs    []int32
	NumDocs   int
	MaxDocID  int32
	MaxSerial int32
	Options   persistedOptions
	Docs      []*xmltree.Document // nil unless KeepDocuments
}

type persistedOptions struct {
	InstantiationLimit    int
	OrderEnumerationLimit int
	KeepDocuments         bool
}

// Save writes the index to w in format v2 (magic header, length, gob
// payload, CRC-32 trailer). Only probability-strategy (g_best) indexes are
// saveable: the strategy is reconstructed from the schema on Load.
func (ix *Index) Save(w io.Writer) error {
	prob, ok := sequence.AsProbability(ix.strategy)
	if !ok {
		return fmt.Errorf("index: only probability-strategy indexes can be saved (have %q)", ix.strategy.Name())
	}
	sch := prob.Model.Schema()
	if sch == nil || sch.Root == nil {
		return fmt.Errorf("index: strategy carries no schema")
	}
	p := persistedIndex{
		Version:   persistVersion,
		Encoder:   ix.enc.Snapshot(),
		Schema:    sch.Root,
		NumDocs:   ix.numDocs,
		MaxDocID:  ix.maxDocID,
		MaxSerial: ix.maxSerial,
		EndPres:   ix.ends.pres,
		EndOffs:   ix.ends.offs,
		EndLens:   ix.ends.lens,
		EndIDs:    ix.ends.ids,
		Options: persistedOptions{
			InstantiationLimit:    ix.opts.InstantiationLimit,
			OrderEnumerationLimit: ix.opts.OrderEnumerationLimit,
			KeepDocuments:         ix.opts.KeepDocuments,
		},
		Docs: ix.docs,
	}
	for path := range prob.RepeatPaths() {
		p.Repeat = append(p.Repeat, path)
	}
	for path, l := range ix.links {
		pl := persistedLink{Path: path}
		pl.Pre, pl.Max, pl.Anc, pl.Embeds = linkColumns(l)
		p.Links = append(p.Links, pl)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:8], persistMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	sum := crc32.ChecksumIEEE(payload.Bytes())
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], sum)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// SaveFile is Save to a file through engine.SaveFile, the one crash-safe
// snapshot writer: a failure mid-save leaves any previous file intact.
func (ix *Index) SaveFile(path string) error {
	return engine.SaveFile(path, ix.Save)
}

// LoadFile reconstructs an index from a file written by SaveFile (or any
// Save stream on disk).
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load %s: %w", path, err)
	}
	defer f.Close()
	ix, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("index: load %s: %w", path, err)
	}
	return ix, nil
}

// Load reconstructs a query-ready index from a Save stream. Any
// corruption — a stream that does not open with the format's magic,
// truncation, bit flips, checksum mismatch, or structural inconsistency —
// is reported as a *CorruptError.
func Load(r io.Reader) (*Index, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, &CorruptError{Reason: "unreadable stream", Err: err}
	}
	if magic != persistMagic {
		return nil, &CorruptError{Reason: "not an index stream"}
	}
	return loadV2(r)
}

// loadV2 reads the remainder of a v2 stream after the magic bytes.
func loadV2(r io.Reader) (*Index, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, &CorruptError{Reason: "truncated header", Err: err}
	}
	size := binary.BigEndian.Uint64(lenBuf[:])
	if int64(size) < 0 || int64(size) > maxPersistPayload {
		return nil, &CorruptError{Reason: fmt.Sprintf("implausible payload length %d", size)}
	}
	// Read through a LimitedReader so a corrupt length field cannot force a
	// huge up-front allocation: the buffer grows only as bytes arrive.
	var payload bytes.Buffer
	got, err := io.Copy(&payload, io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, &CorruptError{Reason: "unreadable payload", Err: err}
	}
	if uint64(got) != size {
		return nil, &CorruptError{Reason: fmt.Sprintf("truncated stream: payload %d of %d bytes", got, size)}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, &CorruptError{Reason: "truncated checksum trailer", Err: err}
	}
	want := binary.BigEndian.Uint32(trailer[:])
	if sum := crc32.ChecksumIEEE(payload.Bytes()); sum != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, sum)}
	}
	var p persistedIndex
	if err := gob.NewDecoder(&payload).Decode(&p); err != nil {
		return nil, &CorruptError{Reason: "undecodable payload", Err: err}
	}
	if p.Version != persistVersion {
		return nil, &CorruptError{Reason: fmt.Sprintf("v2 stream carries payload version %d, want %d", p.Version, persistVersion)}
	}
	return reconstruct(&p)
}

// reconstruct rebuilds a query-ready index from a decoded payload,
// validating structural invariants so a decodable-but-inconsistent stream
// cannot produce a silently wrong index.
func reconstruct(p *persistedIndex) (*Index, error) {
	if p.NumDocs < 0 || p.MaxDocID < 0 || p.MaxSerial < 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("negative size fields (docs %d, max id %d, max serial %d)",
			p.NumDocs, p.MaxDocID, p.MaxSerial)}
	}
	enc, err := pathenc.FromSnapshot(p.Encoder)
	if err != nil {
		return nil, &CorruptError{Reason: "invalid encoder snapshot", Err: err}
	}
	sch, err := schema.New(p.Schema)
	if err != nil {
		return nil, &CorruptError{Reason: "invalid schema", Err: err}
	}
	strategy := sequence.NewProbability(sch, enc)
	repeat := make(map[pathenc.PathID]bool, len(p.Repeat))
	for _, path := range p.Repeat {
		repeat[path] = true
	}
	strategy.SetRepeatPaths(repeat)

	ix := &Index{
		enc:       enc,
		strategy:  strategy,
		prio:      strategy,
		numDocs:   p.NumDocs,
		maxDocID:  p.MaxDocID,
		maxSerial: p.MaxSerial,
		docs:      p.Docs,
		opts: Options{
			Encoder:               enc,
			Strategy:              strategy,
			InstantiationLimit:    p.Options.InstantiationLimit,
			OrderEnumerationLimit: p.Options.OrderEnumerationLimit,
			KeepDocuments:         p.Options.KeepDocuments,
		},
	}
	ix.ends = endList{pres: p.EndPres, offs: p.EndOffs, lens: p.EndLens, ids: p.EndIDs}
	counts := make(map[pathenc.PathID]int32, len(p.Links))
	for _, pl := range p.Links {
		n := len(pl.Pre)
		if len(pl.Max) != n || len(pl.Anc) != n || len(pl.Embeds) != n {
			return nil, &CorruptError{Reason: fmt.Sprintf("link %d has ragged arrays", pl.Path)}
		}
		if _, dup := counts[pl.Path]; dup {
			return nil, &CorruptError{Reason: fmt.Sprintf("link %d appears twice", pl.Path)}
		}
		counts[pl.Path] = int32(n)
	}
	ix.links = allocLinks(counts)
	for _, pl := range p.Links {
		fillLink(ix.links[pl.Path], pl.Pre, pl.Max, pl.Anc, pl.Embeds)
	}
	ix.ci = enc.BuildChildIndex()
	ix.initEngine()
	if err := ix.CheckInvariants(); err != nil {
		return nil, &CorruptError{Reason: "invariant violation", Err: err}
	}
	return ix, nil
}
