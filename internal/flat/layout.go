package flat

import (
	"sort"

	"xseq/internal/match"
	"xseq/internal/pathenc"
)

// This file is the flat layout's side of the match.Layout seam: links are
// views onto the mapped LINKS section, handed to the shared kernel as they
// are; doc-id collection decodes the varint ENDS blocks in place. Because
// the bulk sections are not checksummed at open, every offset followed into
// the ENDS streams is bounds-checked here (and every anc hop in the kernel),
// and a violation aborts the query with a *index.CorruptError instead of
// panicking or silently mis-answering.

// Link resolves a path to its view; link extents were validated at open.
func (ix *Index) Link(p pathenc.PathID) *match.Link {
	if int(p) < 0 || int(p) >= len(ix.links) {
		return nil
	}
	return &ix.links[p]
}

// CollectDocs appends the doc ids of all end nodes with pre in [lo, hi],
// decoding the varint-delta blocks in place and charging the bytes it reads
// to pg. Every offset and varint is bounds-checked; a violation returns a
// *CorruptError.
func (ix *Index) CollectDocs(lo, hi int32, out []int32, pg match.Pager) ([]int32, error) {
	ev := &ix.ends
	if ev.numBlocks == 0 {
		return out, nil
	}
	// Find the first block that could hold pre >= lo: the one before the
	// first block with firstPre > lo (entries within a block ascend from
	// firstPre).
	b := sort.Search(ev.numBlocks, func(k int) bool {
		return int32(le.Uint32(ev.dir[k*endsBlockDirLen:])) > lo
	}) - 1
	if b < 0 {
		b = 0
	}
	payload := ev.payload
	for ; b < ev.numBlocks; b++ {
		row := ev.dir[b*endsBlockDirLen:]
		firstPre := int32(le.Uint32(row))
		if firstPre > hi {
			break
		}
		count := int(le.Uint32(row[4:]))
		entryPos := int(le.Uint64(row[8:]))
		idsPos := int(le.Uint64(row[16:]))
		if count < 0 || count > endsBlockSize || entryPos > len(payload) || idsPos > len(payload) {
			return out, corrupt("ends block %d directory out of range", b)
		}
		if pg != nil {
			pg.TouchRange(ev.fileOff+uint64(b*endsBlockDirLen)+8, endsBlockDirLen)
		}
		pre := firstPre
		for e := 0; e < count; e++ {
			delta, next, ok := uvarint(payload, entryPos)
			if !ok {
				return out, corrupt("ends block %d entry %d: truncated pre delta", b, e)
			}
			idCount, next2, ok := uvarint(payload, next)
			if !ok {
				return out, corrupt("ends block %d entry %d: truncated id count", b, e)
			}
			idsLen, next3, ok := uvarint(payload, next2)
			if !ok {
				return out, corrupt("ends block %d entry %d: truncated ids length", b, e)
			}
			if pg != nil {
				pg.TouchRange(ev.fileOff+uint64(entryPos), next3-entryPos)
			}
			entryPos = next3
			if delta > uint64(1)<<31 || idCount > uint64(1)<<31 || idsLen > uint64(len(payload)) {
				return out, corrupt("ends block %d entry %d: implausible sizes", b, e)
			}
			pre += int32(delta)
			if idsPos+int(idsLen) > len(payload) {
				return out, corrupt("ends block %d entry %d: ids run past section", b, e)
			}
			if pre > hi {
				return out, nil
			}
			if pre < lo {
				idsPos += int(idsLen)
				continue
			}
			if pg != nil {
				pg.TouchRange(ev.fileOff+uint64(idsPos), int(idsLen))
			}
			stop := idsPos + int(idsLen)
			id := int32(0)
			for k := uint64(0); k < idCount; k++ {
				u, next, ok := uvarint(payload, idsPos)
				if !ok || next > stop {
					return out, corrupt("ends block %d entry %d: truncated doc id", b, e)
				}
				idsPos = next
				if k == 0 {
					id = unzigzag(u)
				} else {
					id += unzigzag(u)
				}
				if id < 0 || id > ix.meta.MaxDocID {
					return out, corrupt("ends block %d entry %d: doc id %d outside [0, %d]", b, e, id, ix.meta.MaxDocID)
				}
				out = append(out, id)
			}
			if idsPos != stop {
				return out, corrupt("ends block %d entry %d: ids length mismatch", b, e)
			}
		}
	}
	return out, nil
}
