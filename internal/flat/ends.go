package flat

import "math"

// This file reads the ENDS section: Algorithm 1's terminal step, "output
// the document id lists of node v and all nodes under v", decodes the
// varint blocks in place. Because the bulk sections of a lazily opened
// snapshot are not checksummed, every offset followed into the section is
// bounds-checked here (and every anc hop in the kernel), and a violation
// aborts the query with a *CorruptError instead of panicking or silently
// mis-answering.

// CollectDocs appends the doc ids of all end nodes with pre in [lo, hi],
// the documents under a link entry's interval; every id is within
// [0, MaxDocID].
func (ix *Index) CollectDocs(lo, hi int32, out []int32) ([]int32, error) {
	return ix.collectDocs(lo, hi, out, nil)
}

// collectDocs is CollectDocs charging the directory rows and entry bytes it
// reads to pg when pg is not nil. It binary searches the directory for the
// last block starting at or before lo and decodes blocks from there until
// an entry passes hi.
func (ix *Index) collectDocs(lo, hi int32, out []int32, pg *queryPager) ([]int32, error) {
	ev := &ix.ends
	i, j := 0, ev.numBlocks
	for i < j {
		h := int(uint(i+j) >> 1)
		if int32(le.Uint32(ev.s[4+h*endsDirRowLen:])) <= lo {
			i = h + 1
		} else {
			j = h
		}
	}
	for b := max(i-1, 0); b < ev.numBlocks; b++ {
		start, end, last, done, err := ix.scanBlock(b, lo, hi, &out)
		if err != nil {
			return out, err
		}
		if pg != nil {
			pg.touchRange(ev.fileOff+uint64(4+b*endsDirRowLen), endsDirRowLen)
			pg.touchRange(ev.fileOff+uint64(start), end-start)
		}
		if done || last >= hi {
			break
		}
	}
	return out, nil
}

// scanBlock decodes ENDS block b, appending to *out the ids of its entries
// with pre in [lo, hi]. It stops after the first entry past hi (done); end
// is the offset past the last byte it read and last the pre of the last
// entry decoded.
func (ix *Index) scanBlock(b int, lo, hi int32, out *[]int32) (start, end int, last int32, done bool, err error) {
	s := ix.ends.s
	row := s[4+b*endsDirRowLen:]
	pre, off := le.Uint32(row), le.Uint64(row[4:])
	if off > uint64(len(s)) {
		return 0, 0, 0, false, corrupt("ends block %d at offset %d, past the section", b, off)
	}
	start = int(off)
	pos, maxID := start, uint64(ix.meta.MaxDocID)
	for e := 0; e < min(endsBlockSize, ix.ends.numEnds-b*endsBlockSize); e++ {
		h, next, ok := uvarint(s, pos)
		delta := h >> 1
		if !ok || uint64(pre)+delta > math.MaxInt32 || (e > 0 && delta == 0) {
			return 0, 0, 0, false, corrupt("ends block %d entry %d: bad header", b, e)
		}
		if pre += uint32(delta); int32(pre) > hi {
			return start, next, int32(pre), true, nil
		}
		if h&1 == 0 {
			id, after, ok := uvarint(s, next)
			if !ok || id > maxID {
				return 0, 0, 0, false, corrupt("ends block %d entry %d: doc id outside [0, %d]", b, e, maxID)
			}
			if pos = after; int32(pre) >= lo {
				*out = append(*out, int32(id))
			}
			continue
		}
		n, after, ok1 := uvarint(s, next)
		size, ids, ok2 := uvarint(s, after)
		if !ok1 || !ok2 || n < 2 || size > uint64(len(s)-ids) {
			return 0, 0, 0, false, corrupt("ends block %d entry %d: bad id list", b, e)
		}
		if pos = ids + int(size); int32(pre) >= lo {
			if *out, ok = appendIDs(*out, s[ids:pos], n, int64(maxID)); !ok {
				return 0, 0, 0, false, corrupt("ends block %d entry %d: bad id list", b, e)
			}
		}
	}
	return start, pos, int32(pre), false, nil
}

// appendIDs decodes the n zigzag-delta ids that make up b exactly.
func appendIDs(out []int32, b []byte, n uint64, maxID int64) ([]int32, bool) {
	pos, id := 0, int64(0)
	for k := uint64(0); k < n; k++ {
		u, next, ok := uvarint(b, pos)
		if id += int64(unzigzag(u)); !ok || id < 0 || id > maxID {
			return out, false
		}
		pos = next
		out = append(out, int32(id))
	}
	return out, pos == len(b)
}
