// Package flat is the one frozen representation of the constraint-sequence
// index: the trie's interval labels, its path links sorted by n⊢ and its
// document-id lists (Section 4.1), laid out as offset-addressed arrays that
// the package's Algorithm 1 (Section 4.2, search.go) queries in place,
// with no decode step between the bytes and the kernel. Build lays a
// frozen trie out in a heap buffer and returns the index over it; Save
// writes the snapshot file; OpenFile maps one (ReadAt fallback on platforms
// without mmap), so open cost is O(dictionary) — independent of corpus size
// — and a corpus larger than RAM is serveable: a query touches only the
// pages its binary searches and range scans visit.
//
// File format (version 2, all fixed-width integers little-endian):
//
//	offset  size  field
//	0       8     magic "XSEQFLAT"
//	8       4     version (uint32)
//	12      4     section count (uint32), always 6
//	16      8     total file size (uint64) — catches truncation up front
//	24      144   section table: {id uint32, crc uint32 (IEEE), offset
//	              uint64, length uint64} per section, ids 1..6 in order
//	168     4     CRC-32 (IEEE) of bytes [0, 168) — the header checksum
//	176...        section payloads in id order, each 8-byte aligned
//
// The bulk sections come first, so a build knows where they live in the
// file before it encodes the head that follows them:
//
//	LINKDIR (1)  one {count uint32, flags uint32, offset uint64} per PathID
//	             (NumPaths entries): where the path's link lives in LINKS,
//	             in ascending PathID order. Flag bit 0 (linkHasCover) marks
//	             links that carry sibling-cover metadata; links without it
//	             store only the label arrays — the structure-sharing trick
//	             for repetitive markup, where almost every link's cover
//	             metadata is the all-default {anc: -1, embeds: false} row.
//	LINKS (2)    per link the column block of Link: pres []int32,
//	             maxs []int32, then (only with linkHasCover) anc []int32 and
//	             an embeds bitset, padded to 8 bytes. Fixed-width on
//	             purpose: the kernel binary searches pres and hops anc
//	             chains, which needs random access.
//	ENDS (3)     the end nodes by ascending pre, in blocks of endsBlockSize:
//	             numEnds uint32, a directory row {firstPre uint32, offset
//	             uint64} per block, then the entries. An entry is
//	             uvarint(preDelta<<1 | multi), preDelta counted from the
//	             previous entry of its block (0 for the first), followed
//	             by uvarint(id) for a one-id list — almost every end node —
//	             or, with multi set, uvarint(count), uvarint(byteLen) and
//	             count zigzag varints (the first id, then deltas). A range
//	             scan binary searches the directory and decodes at most
//	             endsBlockSize-1 entries before the range starts.
//	META (4)     gob(flatMeta): schema, corpus bounds, options.
//	DICT (5)     gob(pathenc.Snapshot): the designator/path table.
//	DOCS (6)     gob([]*xmltree.Document), empty unless the corpus was
//	             kept. Decoded on first use, preserving O(dictionary) open.
//
// Version 1 put the head first and used 64-entry ENDS blocks with three
// varints in front of every entry; it is rejected with a *CorruptError that
// says to rebuild.
//
// Opening verifies the header checksum, the section table, the CRCs of the
// small sections (LINKDIR, META, DICT — all O(dictionary)) and that the link
// directory's extents ascend without overlap. The bulk sections (LINKS,
// ENDS, DOCS) are checked by VerifyChecksums, their structure by
// CheckInvariants (Options.Verify runs both at open); without them, every
// query-time read of the bulk sections is bounds-checked, so corruption
// surfaces as a *CorruptError, never a panic.
package flat

import (
	"encoding/binary"
)

// magic opens every flat snapshot; gobMagic opened the retired gob format.
const (
	magic    = "XSEQFLAT"
	gobMagic = "XSEQIDX2"
)

// formatVersion is the version this package writes and accepts.
const formatVersion = 2

// Section ids, which are also the order of the sections in the file.
const (
	secLinkDir = 1 + iota
	secLinks
	secEnds
	secMeta
	secDict
	secDocs
	numSections = secDocs
)

const (
	headerFixedLen  = 24 // magic + version + count + file size
	sectionEntryLen = 24 // id + crc + offset + length
	// headerLen is the header with its section table and checksum; the
	// first section starts at the next 8-byte boundary, bulkBase.
	headerLen = headerFixedLen + numSections*sectionEntryLen + 4
	bulkBase  = (headerLen + 7) &^ 7

	// linkDirEntryLen is one LINKDIR row: count, flags, offset.
	linkDirEntryLen = 16
	// linkHasCover marks a link that stores anc + embeds arrays.
	linkHasCover = 1

	// endsBlockSize is the entry count per ENDS block: small, because a
	// range scan decodes from the start of a block, and large enough that
	// the directory stays under two bytes per entry.
	endsBlockSize = 8
	// endsDirRowLen is one ENDS directory row: firstPre, offset.
	endsDirRowLen = 12
)

// le is the byte order of every fixed-width field.
var le = binary.LittleEndian

// zigzag encodes a signed int32 for varint storage (small magnitudes of
// either sign stay short).
func zigzag(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int32 {
	return int32(uint32(u>>1) ^ -uint32(u&1))
}

// uvarint decodes an unsigned varint from b starting at off, returning the
// value and the offset past it; ok is false on truncation or overflow —
// the caller turns that into a CorruptError. This is binary.Uvarint with an
// explicit offset and no slice reheadering in the hot path.
func uvarint(b []byte, off int) (v uint64, next int, ok bool) {
	var shift uint
	for ; off < len(b); off++ {
		c := b[off]
		if c < 0x80 {
			if shift >= 64 || (shift == 63 && c > 1) {
				return 0, 0, false
			}
			return v | uint64(c)<<shift, off + 1, true
		}
		if shift >= 64 {
			return 0, 0, false
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0, false
}

// putUvarint appends v to b as an unsigned varint.
func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }
