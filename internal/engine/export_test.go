package engine

import "xseq/internal/xmltree"

// ServingLockHeld reports whether d's serving lock is held in either mode.
// A Builder calls it to show that no build runs under the lock; the answer
// is only meaningful while no query is in flight.
func (d *Dynamic) ServingLockHeld() bool {
	if d.mu.TryLock() {
		d.mu.Unlock()
		return false
	}
	return true
}

// SegmentSizes lists the document count of every pending segment, in
// insertion order.
func (d *Dynamic) SegmentSizes() []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sizes := make([]int, len(d.segs))
	for i, s := range d.segs {
		sizes[i] = len(s.docs)
	}
	return sizes
}

// Documents returns the current corpus (main, then pending) in insertion
// order.
func (d *Dynamic) Documents() []*xmltree.Document {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*xmltree.Document, 0, len(d.mainDocs)+d.pending)
	out = append(out, d.mainDocs...)
	for _, s := range d.segs {
		out = append(out, s.docs...)
	}
	return out
}
