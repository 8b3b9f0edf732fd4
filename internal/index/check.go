package index

import (
	"fmt"
	"sort"

	"xseq/internal/pathenc"
)

// CheckInvariants validates the index's structural invariants — the
// properties Algorithm 1's correctness rests on. It is cheap relative to a
// build (one pass over links and doc lists) and is intended for use after
// Load, after crash recovery of persisted files, and in tests:
//
//   - every link is strictly sorted by pre with pre <= max;
//   - every anc pointer references an earlier entry of the same link whose
//     interval strictly contains the entry, and is marked embeds;
//   - labels stay within [1, MaxSerial];
//   - the flattened doc-id list is sorted by pre with consistent offsets
//     and ids within [0, maxDocID].
func (ix *Index) CheckInvariants() error {
	for p, l := range ix.links {
		name := ix.enc.PathString(p)
		for i := int32(0); i < l.Len(); i++ {
			pre, max, anc := l.Pre(i), l.Max(i), l.Anc(i)
			if pre < 1 || max > ix.maxSerial || pre > max {
				return fmt.Errorf("index: link %s entry %d has invalid interval [%d,%d] (max serial %d)",
					name, i, pre, max, ix.maxSerial)
			}
			if i > 0 && l.Pre(i-1) >= pre {
				return fmt.Errorf("index: link %s not strictly sorted at %d", name, i)
			}
			if anc >= 0 {
				if anc >= i {
					return fmt.Errorf("index: link %s entry %d anc %d not earlier", name, i, anc)
				}
				if !(l.Pre(anc) < pre && l.Max(anc) >= max) {
					return fmt.Errorf("index: link %s entry %d not contained by anc %d", name, i, anc)
				}
				if !l.Embeds(anc) {
					return fmt.Errorf("index: link %s entry %d anc %d lacks embeds mark", name, i, anc)
				}
			}
		}
	}
	// Doc list consistency.
	e := ix.ends
	if len(e.pres) != len(e.offs) || len(e.pres) != len(e.lens) {
		return fmt.Errorf("index: ragged end lists (%d/%d/%d)", len(e.pres), len(e.offs), len(e.lens))
	}
	if !sort.SliceIsSorted(e.pres, func(i, j int) bool { return e.pres[i] < e.pres[j] }) {
		return fmt.Errorf("index: end list not sorted by pre")
	}
	total := 0
	for i := range e.pres {
		if e.pres[i] < 1 || e.pres[i] > ix.maxSerial {
			return fmt.Errorf("index: end %d has pre %d outside [1,%d]", i, e.pres[i], ix.maxSerial)
		}
		if int(e.offs[i]) != total {
			return fmt.Errorf("index: end %d offset %d, want %d", i, e.offs[i], total)
		}
		if e.lens[i] <= 0 {
			return fmt.Errorf("index: end %d has empty id list", i)
		}
		total += int(e.lens[i])
	}
	if total != len(e.ids) {
		return fmt.Errorf("index: end lists cover %d ids, have %d", total, len(e.ids))
	}
	for i, id := range e.ids {
		if id < 0 || id > ix.maxDocID {
			return fmt.Errorf("index: doc id %d at %d outside [0,%d]", id, i, ix.maxDocID)
		}
	}
	// Every interned link path must be resolvable in the encoder.
	for p := range ix.links {
		if p <= pathenc.EmptyPath || int(p) >= ix.enc.NumPaths() {
			return fmt.Errorf("index: link path %d outside the path table", p)
		}
	}
	return nil
}
