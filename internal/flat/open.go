package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"xseq/internal/index"
	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// Options tunes Open/OpenFile.
type Options struct {
	// VerifyChecksums CRC-checks the bulk sections (LINKS, ENDS, DOCS) at
	// open, trading the O(1) open for up-front corruption detection — what
	// a serving layer does before publishing a snapshot. Without it the
	// small sections are still verified and every query-time read of the
	// bulk sections is bounds-checked.
	VerifyChecksums bool
	// NoMmap makes OpenFile read the file into memory instead of mapping
	// it (platforms without mmap always do).
	NoMmap bool
}

// Index is an opened flat snapshot: an engine.Engine whose query kernel
// runs directly over the mapped file bytes. Only the dictionary head
// (encoder, schema, strategy, link directory) lives on the Go heap; the
// label arrays and doc-id lists are read in place.
//
// Ownership and pinning: the mapped bytes stay valid until Close. Query
// results are freshly allocated copies (the engine ownership contract), so
// nothing a query returns pins the mapping; an Index dropped without Close
// is unmapped by a finalizer. Close is idempotent and must not race
// in-flight queries.
type Index struct {
	data  []byte
	unmap func() error
	// closed flips once; queries do not check it (the caller contract is
	// "no queries after Close", same as any engine teardown).
	closed atomic.Bool

	meta flatMeta
	enc  *pathenc.Encoder
	ci   *pathenc.ChildIndex
	prio *sequence.Probability

	sections map[uint32]section

	// links holds one view per PathID onto the mapped LINKS section (empty
	// for paths without a link); Off is the pres column's file offset, for
	// page accounting.
	links    []match.Link
	numLinks int

	ends endsView
	eng  match.Engine // the query kernel over links and ends

	docsOnce sync.Once
	docs     []*xmltree.Document
	docsErr  error

	// acct is the page accounting AttachPager installed, nil when detached:
	// a lock-free touched-page bitmap when the pool covers the whole file,
	// the pool's LRU behind a mutex otherwise (pages.go).
	acct atomic.Pointer[accounting]
}

// section is one parsed section-table row.
type section struct {
	crc      uint32
	off, len uint64
}

// endsView locates the end-node table. dir is the block directory
// (numBlocks rows); payload is the whole ENDS section, in which the
// directory's entryOff/idsOff offsets live; fileOff is the section's file
// offset.
type endsView struct {
	numEnds   int
	numBlocks int
	dir       []byte
	payload   []byte
	fileOff   uint64
}

func corrupt(reason string, args ...any) error {
	return &index.CorruptError{Reason: "flat: " + fmt.Sprintf(reason, args...)}
}

// OpenBytes opens a flat snapshot held in memory. data is retained and must
// not be modified while the index is in use.
func OpenBytes(data []byte, opts Options) (*Index, error) {
	ix := &Index{data: data, unmap: nil}
	if err := ix.init(opts); err != nil {
		return nil, err
	}
	return ix, nil
}

// Open reads a complete flat snapshot stream into memory and opens it —
// the io.Reader entry point behind the facade's layout-sniffing Load. For
// the O(1) mapped open, use OpenFile.
func Open(r io.Reader, opts Options) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &index.CorruptError{Reason: "flat: unreadable stream", Err: err}
	}
	return OpenBytes(data, opts)
}

// OpenFile maps path and opens it in place (Options.NoMmap, or a platform
// without mmap, reads it instead). Open cost is O(dictionary): the label
// arrays and doc-id lists are not decoded, only addressed.
func OpenFile(path string, opts Options) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flat: open %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("flat: open %s: %w", path, err)
	}
	var data []byte
	var unmap func() error
	if opts.NoMmap || !mmapAvailable {
		data = make([]byte, fi.Size())
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, &index.CorruptError{Reason: fmt.Sprintf("flat: %s: short read", path), Err: err}
		}
	} else {
		data, unmap, err = mapFile(f, fi.Size())
		if err != nil {
			return nil, err
		}
	}
	ix := &Index{data: data, unmap: unmap}
	if err := ix.init(opts); err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, err
	}
	// A snapshot dropped without Close (a Swapper swapping it out, say)
	// must not leak its mapping.
	runtime.SetFinalizer(ix, func(ix *Index) { _ = ix.Close() })
	return ix, nil
}

// Close releases the mapping (a no-op for in-memory snapshots). Idempotent.
// No queries may be in flight or issued afterwards.
func (ix *Index) Close() error {
	if ix.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(ix, nil)
	if ix.unmap != nil {
		return ix.unmap()
	}
	return nil
}

// Mmapped reports whether the snapshot is memory-mapped (as opposed to
// read into the Go heap).
func (ix *Index) Mmapped() bool { return ix.unmap != nil }

// MappedBytes is the snapshot's total size — the denominator of the
// resident-vs-mapped ratio.
func (ix *Index) MappedBytes() int64 { return int64(len(ix.data)) }

// init parses and validates the header, decodes the dictionary head, and
// addresses the bulk sections. Everything here is O(dictionary).
func (ix *Index) init(opts Options) error {
	data := ix.data
	if len(data) < headerFixedLen+4 {
		return corrupt("truncated header (%d bytes)", len(data))
	}
	if !IsFlatHeader(data) {
		return corrupt("bad magic")
	}
	if v := le.Uint32(data[8:]); v != formatVersion {
		return corrupt("unsupported format version %d (want %d)", v, formatVersion)
	}
	count := le.Uint32(data[12:])
	if count == 0 || count > maxSections {
		return corrupt("implausible section count %d", count)
	}
	headerLen := headerFixedLen + sectionEntryLen*int(count)
	if len(data) < headerLen+4 {
		return corrupt("truncated section table")
	}
	if size := le.Uint64(data[16:]); size != uint64(len(data)) {
		return corrupt("file size %d, header says %d", len(data), size)
	}
	if want, got := le.Uint32(data[headerLen:]), crc32.ChecksumIEEE(data[:headerLen]); want != got {
		return corrupt("header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	ix.sections = make(map[uint32]section, count)
	prevEnd := uint64(align8(headerLen + 4))
	prevID := uint32(0)
	for i := 0; i < int(count); i++ {
		row := data[headerFixedLen+i*sectionEntryLen:]
		id := le.Uint32(row)
		s := section{crc: le.Uint32(row[4:]), off: le.Uint64(row[8:]), len: le.Uint64(row[16:])}
		if id <= prevID {
			return corrupt("section table not ascending at id %d", id)
		}
		prevID = id
		if s.off%8 != 0 || s.off < prevEnd || s.len > uint64(len(data)) || s.off+s.len > uint64(len(data)) {
			return corrupt("section %d extent [%d, %d) outside file or overlapping", id, s.off, s.off+s.len)
		}
		prevEnd = s.off + s.len
		ix.sections[id] = s
	}
	for _, id := range []uint32{secMeta, secDict, secLinkDir, secLinks, secEnds, secDocs} {
		if _, ok := ix.sections[id]; !ok {
			return corrupt("missing section %d", id)
		}
	}
	// Small sections are always checksum-verified: they are O(dictionary),
	// and the heap decode below trusts their bytes.
	for _, id := range []uint32{secMeta, secDict, secLinkDir} {
		if err := ix.checkSection(id); err != nil {
			return err
		}
	}

	if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secMeta))).Decode(&ix.meta); err != nil {
		return &index.CorruptError{Reason: "flat: undecodable meta", Err: err}
	}
	if ix.meta.NumDocs < 0 || ix.meta.MaxDocID < 0 || ix.meta.MaxSerial < 0 {
		return corrupt("negative size fields (docs %d, max id %d, max serial %d)",
			ix.meta.NumDocs, ix.meta.MaxDocID, ix.meta.MaxSerial)
	}
	var snap pathenc.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secDict))).Decode(&snap); err != nil {
		return &index.CorruptError{Reason: "flat: undecodable dictionary", Err: err}
	}
	enc, err := pathenc.FromSnapshot(snap)
	if err != nil {
		return &index.CorruptError{Reason: "flat: invalid encoder snapshot", Err: err}
	}
	sch, err := schema.New(ix.meta.Schema)
	if err != nil {
		return &index.CorruptError{Reason: "flat: invalid schema", Err: err}
	}
	ix.enc = enc
	ix.ci = enc.BuildChildIndex()
	ix.prio = sequence.NewProbability(sch, enc)
	repeat := make(map[pathenc.PathID]bool, len(ix.meta.Repeat))
	for _, p := range ix.meta.Repeat {
		repeat[p] = true
	}
	ix.prio.SetRepeatPaths(repeat)

	if err := ix.initLinks(); err != nil {
		return err
	}
	if err := ix.initEnds(); err != nil {
		return err
	}
	if ix.meta.KeptDocs && ix.sections[secDocs].len == 0 {
		return corrupt("meta says documents were kept but DOCS is empty")
	}
	if opts.VerifyChecksums {
		if err := ix.VerifyChecksums(); err != nil {
			return err
		}
	}
	ix.eng = match.Engine{
		Layout:                ix,
		Enc:                   ix.enc,
		ChildIdx:              ix.ci,
		Prio:                  ix.prio,
		InstantiationLimit:    ix.meta.InstantiationLimit,
		OrderEnumerationLimit: ix.meta.OrderEnumerationLimit,
		MaxDocID:              ix.meta.MaxDocID,
		MaxSerial:             ix.meta.MaxSerial,
	}
	return nil
}

// initLinks validates the link directory against the LINKS arena and
// precomputes one view per path — O(path table).
func (ix *Index) initLinks() error {
	dir := ix.sectionBytes(secLinkDir)
	numPaths := ix.enc.NumPaths()
	if len(dir) != numPaths*linkDirEntryLen {
		return corrupt("link directory holds %d bytes for %d paths (want %d)",
			len(dir), numPaths, numPaths*linkDirEntryLen)
	}
	arena := ix.sectionBytes(secLinks)
	arenaFileOff := ix.sections[secLinks].off
	ix.links = make([]match.Link, numPaths)
	for p := 0; p < numPaths; p++ {
		row := dir[p*linkDirEntryLen:]
		n := le.Uint32(row)
		flags := le.Uint32(row[4:])
		off := le.Uint64(row[8:])
		if n == 0 {
			continue
		}
		if n > uint32(1)<<30 {
			return corrupt("link %d has implausible length %d", p, n)
		}
		hasCover := flags&linkHasCover != 0
		need := uint64(match.LinkBytes(int(n), hasCover))
		if off > uint64(len(arena)) || off+need > uint64(len(arena)) {
			return corrupt("link %d extent [%d, %d) outside links section", p, off, off+need)
		}
		ix.links[p] = match.NewLink(arena[off:], int32(n), hasCover, arenaFileOff+off)
		ix.numLinks++
	}
	return nil
}

// initEnds addresses the end-node table. Only the section header and the
// directory's extent are validated here; the kernel bounds-checks every
// offset and varint it follows, so a corrupt directory surfaces as a
// *CorruptError at query time instead of an O(corpus) open-time scan.
func (ix *Index) initEnds() error {
	s := ix.sectionBytes(secEnds)
	if len(s) < 8 {
		return corrupt("ends section truncated (%d bytes)", len(s))
	}
	numEnds := le.Uint32(s)
	numBlocks := le.Uint32(s[4:])
	if numEnds > uint32(1)<<30 || numBlocks != (numEnds+endsBlockSize-1)/endsBlockSize {
		return corrupt("ends header inconsistent (%d ends, %d blocks)", numEnds, numBlocks)
	}
	dirEnd := 8 + int(numBlocks)*endsBlockDirLen
	if dirEnd > len(s) {
		return corrupt("ends directory extends past section (%d > %d)", dirEnd, len(s))
	}
	ix.ends = endsView{
		numEnds:   int(numEnds),
		numBlocks: int(numBlocks),
		dir:       s[8:dirEnd],
		payload:   s,
		fileOff:   ix.sections[secEnds].off,
	}
	return nil
}

// sectionBytes returns section id's payload (validated extents).
func (ix *Index) sectionBytes(id uint32) []byte {
	s := ix.sections[id]
	return ix.data[s.off : s.off+s.len]
}

// checkSection CRC-verifies one section.
func (ix *Index) checkSection(id uint32) error {
	s := ix.sections[id]
	if got := crc32.ChecksumIEEE(ix.sectionBytes(id)); got != s.crc {
		return corrupt("section %d checksum mismatch (stored %08x, computed %08x)", id, s.crc, got)
	}
	return nil
}

// VerifyChecksums CRC-verifies every section, bulk ones included — the
// full-integrity pass a serving layer runs before publishing a reloaded
// snapshot. Cost is O(file); on a mapped snapshot it also faults every
// page in. Alignment padding between sections is outside every CRC, so the
// sweep checks it is zero too — every byte of the file is then accounted
// for.
func (ix *Index) VerifyChecksums() error {
	exts := make([]section, 0, len(ix.sections))
	for id := range ix.sections {
		if err := ix.checkSection(id); err != nil {
			return err
		}
		exts = append(exts, ix.sections[id])
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
	pos := uint64(headerFixedLen + len(ix.sections)*sectionEntryLen + 4)
	exts = append(exts, section{off: uint64(len(ix.data))})
	for _, s := range exts {
		for ; pos < s.off; pos++ {
			if ix.data[pos] != 0 {
				return corrupt("nonzero padding byte at offset %d", pos)
			}
		}
		pos = s.off + s.len
	}
	return nil
}

// LoadDocuments decodes the retained corpus on first use (match.Layout).
func (ix *Index) LoadDocuments() ([]*xmltree.Document, error) {
	ix.docsOnce.Do(func() {
		if !ix.meta.KeptDocs {
			return
		}
		var docs []*xmltree.Document
		if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secDocs))).Decode(&docs); err != nil {
			ix.docsErr = &index.CorruptError{Reason: "flat: undecodable documents", Err: err}
			return
		}
		ix.docs = docs
	})
	return ix.docs, ix.docsErr
}
