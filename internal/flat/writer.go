package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"xseq/internal/engine"
	"xseq/internal/index"
	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
)

// flatMeta is the small heap-decoded head of a snapshot: everything Open
// needs to rebuild the query machinery (schema → g_best strategy, repeat
// set, options) plus the corpus bounds. It is O(dictionary), never
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

// Write lays ex out in the flat format and writes it to w as one stream.
func Write(w io.Writer, ex *index.Export) error {
	if ex == nil {
		return fmt.Errorf("flat: nil export")
	}
	sections, err := buildSections(ex)
	if err != nil {
		return err
	}
	// Header + table.
	headerLen := headerFixedLen + sectionEntryLen*len(sections) + 4
	off := align8(headerLen)
	total := off
	for i := range sections {
		sections[i].off = uint64(total)
		total += align8(len(sections[i].payload))
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, Magic[:]...)
	hdr = le.AppendUint32(hdr, formatVersion)
	hdr = le.AppendUint32(hdr, uint32(len(sections)))
	hdr = le.AppendUint64(hdr, uint64(total))
	for i := range sections {
		s := &sections[i]
		hdr = le.AppendUint32(hdr, s.id)
		hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(s.payload))
		hdr = le.AppendUint64(hdr, s.off)
		hdr = le.AppendUint64(hdr, uint64(len(s.payload)))
	}
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("flat: write header: %w", err)
	}
	pos := len(hdr)
	var pad [8]byte
	for i := range sections {
		s := &sections[i]
		if n := int(s.off) - pos; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return fmt.Errorf("flat: write padding: %w", err)
			}
			pos += n
		}
		if _, err := w.Write(s.payload); err != nil {
			return fmt.Errorf("flat: write section %d: %w", s.id, err)
		}
		pos += len(s.payload)
	}
	if n := total - pos; n > 0 {
		if _, err := w.Write(pad[:n]); err != nil {
			return fmt.Errorf("flat: write padding: %w", err)
		}
	}
	return nil
}

// WriteFile is Write to a file, crash-safely (engine.SaveFile: a previous
// file at path survives a failure intact).
func WriteFile(path string, ex *index.Export) error {
	return engine.SaveFile(path, func(w io.Writer) error { return Write(w, ex) })
}

type rawSection struct {
	id      uint32
	payload []byte
	off     uint64
}

// buildSections encodes every section payload.
func buildSections(ex *index.Export) ([]rawSection, error) {
	meta := flatMeta{
		Schema:                ex.Schema,
		Repeat:                ex.Repeat,
		NumDocs:               ex.NumDocs,
		MaxDocID:              ex.MaxDocID,
		MaxSerial:             ex.MaxSerial,
		InstantiationLimit:    ex.InstantiationLimit,
		OrderEnumerationLimit: ex.OrderEnumerationLimit,
		KeptDocs:              len(ex.Docs) > 0,
	}
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return nil, fmt.Errorf("flat: encode meta: %w", err)
	}
	var dictBuf bytes.Buffer
	if err := gob.NewEncoder(&dictBuf).Encode(&ex.Encoder); err != nil {
		return nil, fmt.Errorf("flat: encode dictionary: %w", err)
	}
	linkDir, links, err := buildLinks(ex)
	if err != nil {
		return nil, err
	}
	ends, err := buildEnds(ex)
	if err != nil {
		return nil, err
	}
	var docsBuf bytes.Buffer
	if len(ex.Docs) > 0 {
		if err := gob.NewEncoder(&docsBuf).Encode(ex.Docs); err != nil {
			return nil, fmt.Errorf("flat: encode documents: %w", err)
		}
	}
	return []rawSection{
		{id: secMeta, payload: metaBuf.Bytes()},
		{id: secDict, payload: dictBuf.Bytes()},
		{id: secLinkDir, payload: linkDir},
		{id: secLinks, payload: links},
		{id: secEnds, payload: ends},
		{id: secDocs, payload: docsBuf.Bytes()},
	}, nil
}

// buildLinks lays the horizontal links out: a fixed-width directory indexed
// by PathID and one arena of label arrays. Links without cover metadata
// (every anc -1, no embeds bit — the normal case on repetitive markup)
// store only pres+maxs and set no flag; the kernel synthesizes the default
// row.
func buildLinks(ex *index.Export) (dir, arena []byte, err error) {
	dir = make([]byte, ex.NumPaths*linkDirEntryLen)
	for _, l := range ex.Links {
		if l.Path < 0 || int(l.Path) >= ex.NumPaths {
			return nil, nil, fmt.Errorf("flat: link path %d outside path table [0, %d)", l.Path, ex.NumPaths)
		}
		n := len(l.Pre)
		if len(l.Max) != n || (l.HasCover && (len(l.Anc) != n || len(l.Embeds) != n)) {
			return nil, nil, fmt.Errorf("flat: link %d has ragged arrays", l.Path)
		}
		flags := uint32(0)
		if l.HasCover {
			flags |= linkHasCover
		}
		row := dir[int(l.Path)*linkDirEntryLen:]
		le.PutUint32(row, uint32(n))
		le.PutUint32(row[4:], flags)
		le.PutUint64(row[8:], uint64(len(arena)))
		for _, v := range l.Pre {
			arena = le.AppendUint32(arena, uint32(v))
		}
		for _, v := range l.Max {
			arena = le.AppendUint32(arena, uint32(v))
		}
		if l.HasCover {
			for _, v := range l.Anc {
				arena = le.AppendUint32(arena, uint32(v))
			}
			bs := make([]byte, match.BitsetLen(n))
			for i, e := range l.Embeds {
				if e {
					match.BitsetSet(bs, i)
				}
			}
			arena = append(arena, bs...)
		}
		for len(arena)%8 != 0 {
			arena = append(arena, 0)
		}
	}
	return dir, arena, nil
}

// buildEnds encodes the end-node table: fixed-width block directory over
// varint-delta entry and doc-id streams.
func buildEnds(ex *index.Export) ([]byte, error) {
	numEnds := len(ex.EndPres)
	if len(ex.EndOffs) != numEnds || len(ex.EndLens) != numEnds {
		return nil, fmt.Errorf("flat: ragged end-node arrays")
	}
	numBlocks := (numEnds + endsBlockSize - 1) / endsBlockSize
	var entries, ids []byte
	type blockRow struct {
		firstPre int32
		count    uint32
		entryOff uint64
		idsOff   uint64
	}
	blocks := make([]blockRow, 0, numBlocks)
	for b := 0; b < numBlocks; b++ {
		lo := b * endsBlockSize
		hi := min(lo+endsBlockSize, numEnds)
		blocks = append(blocks, blockRow{
			firstPre: ex.EndPres[lo],
			count:    uint32(hi - lo),
			entryOff: uint64(len(entries)),
			idsOff:   uint64(len(ids)),
		})
		prevPre := ex.EndPres[lo]
		for i := lo; i < hi; i++ {
			pre := ex.EndPres[i]
			if pre < prevPre {
				return nil, fmt.Errorf("flat: end-node pres not ascending at %d", i)
			}
			off, n := ex.EndOffs[i], ex.EndLens[i]
			if n < 0 || off < 0 || int(off)+int(n) > len(ex.EndIDs) {
				return nil, fmt.Errorf("flat: end-node %d id range [%d, %d) outside ids array", i, off, off+n)
			}
			list := ex.EndIDs[off : off+n]
			var enc []byte
			prev := int32(0)
			for k, id := range list {
				if k == 0 {
					enc = putUvarint(enc, zigzag(id))
				} else {
					enc = putUvarint(enc, zigzag(id-prev))
				}
				prev = id
			}
			entries = putUvarint(entries, uint64(pre-prevPre))
			entries = putUvarint(entries, uint64(n))
			entries = putUvarint(entries, uint64(len(enc)))
			ids = append(ids, enc...)
			prevPre = pre
		}
	}
	// Assemble: header, directory, entries, ids — entries 8-aligned so the
	// directory's offsets are section-relative to fixed bases.
	dirLen := numBlocks * endsBlockDirLen
	entriesBase := align8(8 + dirLen)
	idsBase := align8(entriesBase + len(entries))
	out := make([]byte, 0, idsBase+len(ids))
	out = le.AppendUint32(out, uint32(numEnds))
	out = le.AppendUint32(out, uint32(numBlocks))
	for _, b := range blocks {
		out = le.AppendUint32(out, uint32(b.firstPre))
		out = le.AppendUint32(out, b.count)
		out = le.AppendUint64(out, b.entryOff+uint64(entriesBase))
		out = le.AppendUint64(out, b.idsOff+uint64(idsBase))
	}
	for len(out) < entriesBase {
		out = append(out, 0)
	}
	out = append(out, entries...)
	for len(out) < idsBase {
		out = append(out, 0)
	}
	out = append(out, ids...)
	return out, nil
}
