package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// Options tunes Open/OpenFile.
type Options struct {
	// Verify runs VerifyChecksums and CheckInvariants at open, trading the
	// O(dictionary) open for an O(file) one that proves the bytes are the
	// index that was written. Without it the small sections are still
	// verified and every query-time read of the bulk sections is
	// bounds-checked.
	Verify bool
	// NoMmap makes OpenFile read the file into memory instead of mapping
	// it (platforms without mmap always do).
	NoMmap bool
}

// Index is the engine over one flat image: an engine.Engine whose query
// kernel runs directly over the bytes — a mapped or read snapshot file, or
// the heap buffer Build filled. Only the head (encoder, schema, strategy,
// link directory) lives as Go values; the label arrays and doc-id lists are
// read in place.
//
// Ownership and pinning: mapped bytes stay valid until Close. Query results
// are freshly allocated copies (the engine ownership contract), so nothing
// a query returns pins the mapping; an Index dropped without Close is
// unmapped by a finalizer. Close is idempotent and must not race in-flight
// queries.
type Index struct {
	// data is the whole snapshot when opened (file is true). A built index
	// holds only its bulk sections there, at the offsets a saved file gives
	// them, and keeps its head as the Go values below.
	data  []byte
	file  bool
	unmap func() error
	// closed flips once; queries do not check it (the caller contract is
	// "no queries after Close", same as any engine teardown).
	closed atomic.Bool

	meta     flatMeta
	enc      *pathenc.Encoder
	ci       *pathenc.ChildIndex
	strategy sequence.Strategy
	prio     sequence.Prioritizer // nil when the strategy cannot order queries

	sections [numSections + 1]section // by id

	// links holds one view per PathID onto the LINKS section (empty for
	// paths without a link); Off is the pres column's file offset, for page
	// accounting.
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

// flatMeta is the META section: everything Open needs besides the
// dictionary to rebuild the query machinery (schema → g_best strategy,
// repeat set, options), plus the corpus bounds. It is O(dictionary), never
// O(corpus).
type flatMeta struct {
	Schema                *schema.Node
	Repeat                []pathenc.PathID
	NumDocs               int
	MaxDocID              int32
	MaxSerial             int32
	InstantiationLimit    int
	OrderEnumerationLimit int
	KeptDocs              bool // DOCS section is non-empty
}

// section is one section-table row.
type section struct {
	crc      uint32
	off, len uint64
}

// endsView locates the end-node table: s is the whole ENDS section, whose
// directory rows start at byte 4; fileOff is the section's file offset.
type endsView struct {
	numEnds   int
	numBlocks int
	s         []byte
	fileOff   uint64
}

func corrupt(reason string, args ...any) error {
	return &match.CorruptError{Reason: "flat: " + fmt.Sprintf(reason, args...)}
}

// OpenBytes opens a flat snapshot held in memory. data is retained and must
// not be modified while the index is in use.
func OpenBytes(data []byte, opts Options) (*Index, error) {
	ix := &Index{data: data}
	if err := ix.init(opts); err != nil {
		return nil, err
	}
	return ix, nil
}

// Open reads a complete flat snapshot stream into memory and opens it. For
// the O(dictionary) mapped open, use OpenFile.
func Open(r io.Reader, opts Options) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &match.CorruptError{Reason: "flat: unreadable stream", Err: err}
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
			return nil, &match.CorruptError{Reason: fmt.Sprintf("flat: %s: short read", path), Err: err}
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

// Close releases the mapping (a no-op for in-memory images). Idempotent.
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
// held on the Go heap).
func (ix *Index) Mmapped() bool { return ix.unmap != nil }

// MappedBytes is the image's total size — the denominator of the
// resident-vs-mapped ratio.
func (ix *Index) MappedBytes() int64 { return int64(len(ix.data)) }

// init parses and validates the header, decodes the head, and addresses the
// bulk sections. Everything here is O(dictionary).
func (ix *Index) init(opts Options) error {
	data := ix.data
	if bytes.HasPrefix(data, []byte(gobMagic)) {
		return corrupt("a gob %s snapshot, a format no longer read: rebuild the index from its corpus", gobMagic)
	}
	if len(data) < bulkBase {
		return corrupt("truncated header (%d bytes)", len(data))
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return corrupt("bad magic")
	}
	if v := le.Uint32(data[8:]); v != formatVersion {
		return corrupt("format version %d, this build reads only version %d: rebuild the snapshot", v, formatVersion)
	}
	if count := le.Uint32(data[12:]); count != numSections {
		return corrupt("%d sections, want %d", count, numSections)
	}
	if size := le.Uint64(data[16:]); size != uint64(len(data)) {
		return corrupt("file size %d, header says %d", len(data), size)
	}
	if want, got := le.Uint32(data[headerLen-4:]), crc32.ChecksumIEEE(data[:headerLen-4]); want != got {
		return corrupt("header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	prevEnd := uint64(bulkBase)
	for id := 1; id <= numSections; id++ {
		row := data[headerFixedLen+(id-1)*sectionEntryLen:]
		s := section{crc: le.Uint32(row[4:]), off: le.Uint64(row[8:]), len: le.Uint64(row[16:])}
		if got := le.Uint32(row); got != uint32(id) {
			return corrupt("section table row %d holds id %d", id, got)
		}
		if s.off%8 != 0 || s.off < prevEnd || s.len > uint64(len(data)) || s.off+s.len > uint64(len(data)) {
			return corrupt("section %d extent [%d, %d) outside file or overlapping", id, s.off, s.off+s.len)
		}
		prevEnd = s.off + s.len
		ix.sections[id] = s
	}
	// Small sections are always checksum-verified: they are O(dictionary),
	// and the decode below trusts their bytes.
	for _, id := range []int{secLinkDir, secMeta, secDict} {
		if err := ix.checkSection(id); err != nil {
			return err
		}
	}

	if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secMeta))).Decode(&ix.meta); err != nil {
		return &match.CorruptError{Reason: "flat: undecodable meta", Err: err}
	}
	if ix.meta.NumDocs < 0 || ix.meta.MaxDocID < 0 || ix.meta.MaxSerial < 0 {
		return corrupt("negative size fields (docs %d, max id %d, max serial %d)",
			ix.meta.NumDocs, ix.meta.MaxDocID, ix.meta.MaxSerial)
	}
	if ix.meta.KeptDocs != (ix.sections[secDocs].len > 0) {
		return corrupt("meta says documents kept = %v, DOCS holds %d bytes", ix.meta.KeptDocs, ix.sections[secDocs].len)
	}
	var snap pathenc.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secDict))).Decode(&snap); err != nil {
		return &match.CorruptError{Reason: "flat: undecodable dictionary", Err: err}
	}
	enc, err := pathenc.FromSnapshot(snap)
	if err != nil {
		return &match.CorruptError{Reason: "flat: invalid encoder snapshot", Err: err}
	}
	sch, err := schema.New(ix.meta.Schema)
	if err != nil {
		return &match.CorruptError{Reason: "flat: invalid schema", Err: err}
	}
	prob := sequence.NewProbability(sch, enc)
	repeat := make(map[pathenc.PathID]bool, len(ix.meta.Repeat))
	for _, p := range ix.meta.Repeat {
		repeat[p] = true
	}
	prob.SetRepeatPaths(repeat)
	ix.enc, ix.ci, ix.strategy, ix.prio = enc, enc.BuildChildIndex(), prob, prob

	if err := ix.initLinks(); err != nil {
		return err
	}
	s := ix.sectionBytes(secEnds)
	if len(s) < 4 {
		return corrupt("ends section truncated (%d bytes)", len(s))
	}
	if n := le.Uint32(s); n > 1<<30 || 4+endsBlocks(int(n))*endsDirRowLen > len(s) {
		return corrupt("ends directory for %d entries does not fit the %d-byte section", n, len(s))
	}
	ix.initEnds()
	ix.file = true
	if opts.Verify {
		if err := ix.VerifyChecksums(); err != nil {
			return err
		}
		if err := ix.CheckInvariants(); err != nil {
			return err
		}
	}
	ix.initEngine()
	return nil
}

// initLinks validates the link directory against the LINKS section and
// precomputes one view per path — O(path table). Links must ascend by
// PathID without overlapping, as Build lays them out: a row that repeats
// another's extent would alias two paths' links.
func (ix *Index) initLinks() error {
	dir := ix.sectionBytes(secLinkDir)
	numPaths := ix.enc.NumPaths()
	if len(dir) != numPaths*linkDirEntryLen {
		return corrupt("link directory holds %d bytes for %d paths (want %d)",
			len(dir), numPaths, numPaths*linkDirEntryLen)
	}
	arena := ix.sectionBytes(secLinks)
	arenaFileOff := ix.sections[secLinks].off
	ix.links, ix.numLinks = make([]match.Link, numPaths), 0
	prevEnd := uint64(0)
	for p := 0; p < numPaths; p++ {
		row := dir[p*linkDirEntryLen:]
		n := le.Uint32(row)
		hasCover := le.Uint32(row[4:])&linkHasCover != 0
		off := le.Uint64(row[8:])
		if n == 0 {
			continue
		}
		if n > uint32(1)<<30 {
			return corrupt("link %d has implausible length %d", p, n)
		}
		need := uint64(match.LinkBytes(int(n), hasCover))
		if off < prevEnd || off > uint64(len(arena)) || off+need > uint64(len(arena)) {
			return corrupt("link %d extent [%d, %d) overlaps another link or leaves the links section", p, off, off+need)
		}
		prevEnd = off + need
		ix.links[p] = match.NewLink(arena[off:], int32(n), hasCover, arenaFileOff+off)
		ix.numLinks++
	}
	return nil
}

// endsBlocks is the directory length for n end nodes.
func endsBlocks(n int) int { return (n + endsBlockSize - 1) / endsBlockSize }

// initEnds addresses the end-node table, whose header and directory extent
// are known to be sound. The kernel bounds-checks every offset and varint
// it follows, so a corrupt directory or entry surfaces as a *CorruptError
// at query time instead of an O(corpus) open-time scan.
func (ix *Index) initEnds() {
	s := ix.sectionBytes(secEnds)
	n := int(le.Uint32(s))
	ix.ends = endsView{numEnds: n, numBlocks: endsBlocks(n), s: s, fileOff: ix.sections[secEnds].off}
}

// initEngine points the query kernel at the finished index.
func (ix *Index) initEngine() {
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
}

// sectionBytes returns section id's payload (validated extents).
func (ix *Index) sectionBytes(id int) []byte {
	s := ix.sections[id]
	return ix.data[s.off : s.off+s.len]
}

// checkSection CRC-verifies one section of an opened snapshot.
func (ix *Index) checkSection(id int) error {
	s := ix.sections[id]
	if got := crc32.ChecksumIEEE(ix.sectionBytes(id)); got != s.crc {
		return corrupt("section %d checksum mismatch (stored %08x, computed %08x)", id, s.crc, got)
	}
	return nil
}

// VerifyChecksums is the O(file) integrity sweep a serving layer runs
// before publishing a mapped snapshot: every section's checksum and the
// zero padding between sections, so every byte of the file is accounted
// for. On a mapped snapshot it also faults every page in. A built image has
// no checksums to check.
func (ix *Index) VerifyChecksums() error {
	if !ix.file {
		return nil
	}
	pos := uint64(headerLen)
	for id := 1; id <= numSections; id++ {
		s := ix.sections[id]
		if err := ix.checkSection(id); err != nil {
			return err
		}
		if err := ix.zeroPadding(pos, s.off); err != nil {
			return err
		}
		pos = s.off + s.len
	}
	return ix.zeroPadding(pos, uint64(len(ix.data)))
}

// zeroPadding checks the alignment padding [from, to), which no checksum
// covers.
func (ix *Index) zeroPadding(from, to uint64) error {
	for p := from; p < to; p++ {
		if ix.data[p] != 0 {
			return corrupt("nonzero padding byte at offset %d", p)
		}
	}
	return nil
}

// LoadDocuments returns the retained corpus (match.Layout). An opened
// snapshot decodes its DOCS section on first use, after checking its CRC.
func (ix *Index) LoadDocuments() ([]*xmltree.Document, error) {
	if !ix.file {
		return ix.docs, nil
	}
	ix.docsOnce.Do(func() {
		if !ix.meta.KeptDocs {
			return
		}
		if ix.docsErr = ix.checkSection(secDocs); ix.docsErr != nil {
			return
		}
		var docs []*xmltree.Document
		if err := gob.NewDecoder(bytes.NewReader(ix.sectionBytes(secDocs))).Decode(&docs); err != nil {
			ix.docsErr = &match.CorruptError{Reason: "flat: undecodable documents", Err: err}
			return
		}
		ix.docs = docs
	})
	return ix.docs, ix.docsErr
}

// ReleaseEncodedHead decodes the corpus of a heap-held opened snapshot and
// then keeps only its bulk sections (LINKDIR, LINKS, ENDS), at the offsets
// they already have: the form Build produces. The encoded head (META, DICT,
// DOCS) is not held any more, so a corpus adopted from a snapshot is not
// kept twice, once encoded and once decoded; Save encodes the head again
// from the decoded values, as it does for a built index. A mapped snapshot
// is left as it is (the kernel may evict its pages), and so is a built
// index. The links and ends are re-addressed onto the new image, so no
// query may run concurrently.
func (ix *Index) ReleaseEncodedHead() error {
	if !ix.file || ix.unmap != nil {
		return nil
	}
	if _, err := ix.LoadDocuments(); err != nil {
		return err
	}
	ends := ix.sections[secEnds]
	ix.data = append([]byte(nil), ix.data[:ends.off+ends.len]...)
	ix.file = false
	for id := secMeta; id <= secDocs; id++ {
		ix.sections[id] = section{}
	}
	if err := ix.initLinks(); err != nil {
		return err
	}
	ix.initEnds()
	return nil
}
