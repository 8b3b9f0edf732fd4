package flat

import "xseq/internal/pathenc"

// Link is one path's horizontal link (Figures 8/9) in column form: the
// interval labels of every trie node with that path, ascending by pre, as
// little-endian int32 columns, plus the sibling-cover metadata. anc[k] is
// the index (within the same link) of entry k's nearest same-path strict
// ancestor in the trie, or -1; embeds bit k reports whether a later entry
// names k as its anc — whether the trie node "embeds identical siblings" in
// the sense of Algorithm 1. Links in which no entry has either (the normal
// case on repetitive markup) carry no anc or embeds column at all.
//
// The columns are one contiguous block — pres, maxs, then (with cover) anc
// and the embeds bitset — which is an XSEQFLAT LINKS entry, so the kernel
// reads the block in place, from a mapped file or from the buffer Build
// filled. Entry indexes in [0, Len()) are in bounds by construction; what
// the columns hold is validated by CheckInvariants, and the kernel assumes
// only that anc chains can be forged.
type Link struct {
	cols  []byte // 8*n bytes, or 12*n + bitsetLen(n) with cover
	n     int32
	cover bool
	off   uint64 // the file offset of slot 0, for page accounting
}

// linkBytes is the size of an n-entry link's column block.
func linkBytes(n int, cover bool) int {
	if !cover {
		return 8 * n
	}
	return 12*n + bitsetLen(n)
}

// newLink views an n-entry link over its column block, which must hold
// linkBytes(n, cover) bytes.
func newLink(cols []byte, n int32, cover bool, off uint64) Link {
	return Link{cols: cols[:linkBytes(int(n), cover)], n: n, cover: cover, off: off}
}

// Link resolves a path to its link; link extents were validated at open.
// A path without a link has an empty one; an unknown path, nil.
func (ix *Index) Link(p pathenc.PathID) *Link {
	if int(p) < 0 || int(p) >= len(ix.links) {
		return nil
	}
	return &ix.links[p]
}

// Len is the entry count; a nil link is empty.
func (l *Link) Len() int32 {
	if l == nil {
		return 0
	}
	return l.n
}

// Pre and Max read entry k's interval label.
func (l *Link) Pre(k int32) int32 { return int32(le.Uint32(l.cols[4*k:])) }
func (l *Link) Max(k int32) int32 { return int32(le.Uint32(l.cols[4*(l.n+k):])) }

// Anc reads entry k's cover ancestor, -1 for cover-elided links.
func (l *Link) Anc(k int32) int32 {
	if !l.cover {
		return -1
	}
	return int32(le.Uint32(l.cols[4*(2*l.n+k):]))
}

// Embeds reads entry k's embeds bit, false for cover-elided links.
func (l *Link) Embeds(k int32) bool {
	return l.cover && l.cols[12*l.n+k>>3]&(1<<uint(k&7)) != 0
}

// HasCover reports whether the link stores anc and embeds columns.
func (l *Link) HasCover() bool { return l.cover }

// LowerBound returns the first entry with pre >= lo, for the baselines that
// scan a link range themselves.
func (l *Link) LowerBound(lo int32) int32 {
	if l.Len() == 0 {
		return 0
	}
	return searchLink(l, lo, nil, nil)
}

// bitsetLen is the byte length of an n-entry embeds bitset, 4-byte aligned.
func bitsetLen(n int) int { return ((n+7)/8 + 3) &^ 3 }

// set, setAnc and setEmbeds fill in a link under construction, which must
// view writable memory (a build's buffer; a mapped snapshot is read-only).
// setAnc and setEmbeds need the cover columns.

// set stores entry k's interval label.
func (l *Link) set(k, pre, max int32) {
	le.PutUint32(l.cols[4*k:], uint32(pre))
	le.PutUint32(l.cols[4*(l.n+k):], uint32(max))
}

// setAnc stores entry k's cover ancestor, -1 for none.
func (l *Link) setAnc(k, anc int32) {
	le.PutUint32(l.cols[4*(2*l.n+k):], uint32(anc))
}

// setEmbeds marks entry k as embedding identical siblings.
func (l *Link) setEmbeds(k int32) {
	l.cols[12*l.n+k>>3] |= 1 << uint(k&7)
}
