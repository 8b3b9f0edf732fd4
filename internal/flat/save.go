package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"xseq/internal/engine"
	"xseq/internal/sequence"
)

// Save writes the snapshot. An opened snapshot is its own serialization, so
// that is a byte copy; a built index writes its bulk sections as they are
// and encodes its head (META, DICT, DOCS) behind them. Only g_best indexes
// are saveable: opening rebuilds the query priorities from the persisted
// schema, weights included.
func (ix *Index) Save(w io.Writer) error {
	if ix.file {
		if _, err := w.Write(ix.data); err != nil {
			return fmt.Errorf("flat: save: %w", err)
		}
		return nil
	}
	var payloads [numSections + 1][]byte
	var err error
	if payloads[secMeta], payloads[secDict], payloads[secDocs], err = ix.encodeHead(); err != nil {
		return err
	}
	for id := secLinkDir; id <= secEnds; id++ {
		payloads[id] = ix.sectionBytes(id)
	}
	return writeSections(w, payloads)
}

// SaveFile is Save to a file, crash-safely (engine.SaveFile: a previous
// file at path survives a failure intact).
func (ix *Index) SaveFile(path string) error {
	return engine.SaveFile(path, ix.Save)
}

// WriteFile is ix.SaveFile(path).
//
// Deprecated: it remains for callers of the conversion from the former heap
// layout; every index is already flat.
func WriteFile(path string, ix *Index) error { return ix.SaveFile(path) }

// encodeHead encodes a built index's META, DICT and DOCS sections.
func (ix *Index) encodeHead() (meta, dict, docs []byte, err error) {
	prob, ok := ix.strategy.(*sequence.Probability)
	if !ok {
		return nil, nil, nil, fmt.Errorf("flat: only g_best indexes can be saved (have %q)", ix.strategy.Name())
	}
	sch := prob.Model.Schema()
	if sch == nil || sch.Root == nil {
		return nil, nil, nil, fmt.Errorf("flat: strategy carries no schema")
	}
	m := ix.meta
	m.Schema, m.KeptDocs = sch.Root, len(ix.docs) > 0
	var bufs [3]bytes.Buffer
	if err := gob.NewEncoder(&bufs[0]).Encode(&m); err != nil {
		return nil, nil, nil, fmt.Errorf("flat: encode meta: %w", err)
	}
	if err := gob.NewEncoder(&bufs[1]).Encode(ix.enc.Snapshot()); err != nil {
		return nil, nil, nil, fmt.Errorf("flat: encode dictionary: %w", err)
	}
	if m.KeptDocs {
		if err := gob.NewEncoder(&bufs[2]).Encode(ix.docs); err != nil {
			return nil, nil, nil, fmt.Errorf("flat: encode documents: %w", err)
		}
	}
	return bufs[0].Bytes(), bufs[1].Bytes(), bufs[2].Bytes(), nil
}

// writeSections writes a snapshot holding the given section payloads, each
// 8-byte aligned after the header — the offsets Build gives the bulk
// sections in memory.
func writeSections(w io.Writer, payloads [numSections + 1][]byte) error {
	hdr := make([]byte, 0, bulkBase)
	hdr = append(hdr, magic...)
	hdr = le.AppendUint32(hdr, formatVersion)
	hdr = le.AppendUint32(hdr, numSections)
	total := bulkBase
	for id := 1; id <= numSections; id++ {
		total += align8(len(payloads[id]))
	}
	hdr = le.AppendUint64(hdr, uint64(total))
	off := bulkBase
	for id := 1; id <= numSections; id++ {
		p := payloads[id]
		hdr = le.AppendUint32(hdr, uint32(id))
		hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(p))
		hdr = le.AppendUint64(hdr, uint64(off))
		hdr = le.AppendUint64(hdr, uint64(len(p)))
		off += align8(len(p))
	}
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	hdr = hdr[:bulkBase]
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("flat: write header: %w", err)
	}
	var pad [8]byte
	for id := 1; id <= numSections; id++ {
		p := payloads[id]
		if _, err := w.Write(p); err != nil {
			return fmt.Errorf("flat: write section %d: %w", id, err)
		}
		if n := align8(len(p)) - len(p); n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return fmt.Errorf("flat: write padding: %w", err)
			}
		}
	}
	return nil
}
