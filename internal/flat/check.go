package flat

// CheckInvariants validates the structure Algorithm 1's correctness rests
// on, reading every link and end-node entry once:
//
//   - every link is strictly sorted by pre, with 1 <= pre <= max <=
//     MaxSerial;
//   - every anc pointer references an earlier entry of the same link whose
//     interval strictly contains the entry, and which is marked embeds;
//   - the end nodes ascend strictly by pre within [1, MaxSerial], and every
//     doc id lies within [0, MaxDocID].
//
// Checksums prove that bytes are the ones written; this proves that what
// was written is an index. A violation is a *CorruptError.
func (ix *Index) CheckInvariants() error {
	maxSerial := ix.meta.MaxSerial
	for p := range ix.links {
		l := &ix.links[p]
		for i := int32(0); i < l.Len(); i++ {
			pre, max, anc := l.Pre(i), l.Max(i), l.Anc(i)
			if pre < 1 || max > maxSerial || pre > max {
				return corrupt("link %d entry %d has invalid interval [%d,%d] (max serial %d)", p, i, pre, max, maxSerial)
			}
			if i > 0 && l.Pre(i-1) >= pre {
				return corrupt("link %d not strictly sorted at %d", p, i)
			}
			if anc >= 0 {
				if anc >= i {
					return corrupt("link %d entry %d anc %d not earlier", p, i, anc)
				}
				if !(l.Pre(anc) < pre && l.Max(anc) >= max) {
					return corrupt("link %d entry %d not contained by anc %d", p, i, anc)
				}
				if !l.Embeds(anc) {
					return corrupt("link %d entry %d anc %d lacks embeds mark", p, i, anc)
				}
			}
		}
	}
	last := int32(0)
	var ids []int32
	for b := 0; b < ix.ends.numBlocks; b++ {
		if first := int32(le.Uint32(ix.ends.s[4+b*endsDirRowLen:])); first <= last {
			return corrupt("end block %d starts at pre %d, not after %d", b, first, last)
		}
		var err error
		if _, _, last, _, err = ix.scanBlock(b, 0, maxSerial, &ids); err != nil {
			return err
		}
		if last > maxSerial {
			return corrupt("end block %d reaches pre %d past max serial %d", b, last, maxSerial)
		}
		ids = ids[:0]
	}
	return nil
}
