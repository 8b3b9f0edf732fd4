// Package flat is the fourth storage organization of the constraint-sequence
// index: a single-file snapshot laid out as offset-addressed arrays that are
// queried in place, with no decode step between the bytes on disk and the
// match kernel. A snapshot is opened with mmap (ReadAt fallback on platforms
// without it), so open cost is O(dictionary) — independent of corpus size —
// and a corpus larger than RAM is serveable: the kernel only ever touches
// the pages a query's binary searches and range scans actually visit.
//
// File format (version 1, all fixed-width integers little-endian):
//
//	offset  size  field
//	0       8     magic "XSEQFLAT"
//	8       4     version (uint32)
//	12      4     section count s (uint32)
//	16      8     total file size (uint64) — catches truncation up front
//	24      24*s  section table: {id uint32, crc uint32 (IEEE), offset
//	              uint64, length uint64} per section, ascending id
//	24+24s  4     CRC-32 (IEEE) of bytes [0, 24+24s) — the header checksum
//	...           section payloads, each 8-byte aligned
//
// Sections:
//
//	META (1)     gob(flatMeta): schema, repeat set, corpus bounds, options.
//	DICT (2)     gob(pathenc.Snapshot): the designator/path table.
//	LINKDIR (3)  one {count uint32, flags uint32, offset uint64} per PathID
//	             (NumPaths entries): where the path's link lives in LINKS.
//	             Flag bit 0 (linkHasCover) marks links that carry
//	             sibling-cover metadata; links without it store only the
//	             label arrays — the structure-sharing trick for repetitive
//	             markup, where almost every link's cover metadata is the
//	             all-default {anc: -1, embeds: false} row.
//	LINKS (4)    per link: pres []int32, maxs []int32, then (only with
//	             linkHasCover) anc []int32 and an embeds bitset, each run
//	             4-byte aligned. Fixed-width on purpose: the kernel binary
//	             searches pres and hops anc chains, which needs random
//	             access.
//	ENDS (5)     the end-node table, varint-delta encoded in blocks of
//	             endsBlockSize entries (access is sequential range scans, so
//	             compression costs nothing): header {numEnds uint32,
//	             numBlocks uint32}, a fixed-width block directory {firstPre
//	             int32, count uint32, entryOff uint64, idsOff uint64}, then
//	             per entry uvarint(preDelta), uvarint(idCount),
//	             uvarint(idsByteLen), and per doc-id list zigzag varints
//	             (first id absolute, then deltas).
//	DOCS (6)     gob([]*xmltree.Document), empty unless the source index
//	             kept its corpus. Decoded lazily (only Verify/Documents
//	             need it), preserving O(dictionary) open.
//
// Opening verifies the header checksum, the structural sanity of the
// section table, and the CRCs of the small sections (META, DICT, LINKDIR —
// all O(dictionary)). The bulk sections (LINKS, ENDS, DOCS) are checked by
// VerifyChecksums (Options.VerifyChecksums runs it at open); without it,
// every query-time read of those sections is bounds-checked, so corruption
// surfaces as a *index.CorruptError, never a panic or a silent wrong
// answer.
package flat

import (
	"encoding/binary"
)

// Magic opens every flat snapshot.
var Magic = [8]byte{'X', 'S', 'E', 'Q', 'F', 'L', 'A', 'T'}

// formatVersion is the version this package writes and accepts.
const formatVersion = 1

// Section ids. The table is written ascending; ids are unique.
const (
	secMeta    = 1
	secDict    = 2
	secLinkDir = 3
	secLinks   = 4
	secEnds    = 5
	secDocs    = 6
)

const (
	headerFixedLen  = 24 // magic + version + count + file size
	sectionEntryLen = 24 // id + crc + offset + length
	maxSections     = 64 // sanity bound against hostile counts

	// linkDirEntryLen is one LINKDIR row: count, flags, offset.
	linkDirEntryLen = 16
	// linkHasCover marks a link that stores anc + embeds arrays.
	linkHasCover = 1

	// endsBlockSize is the entry count per ENDS block: big enough to
	// amortize the 24-byte directory row, small enough that a range scan
	// decodes little beyond what it returns.
	endsBlockSize = 64
	// endsBlockDirLen is one ENDS block-directory row.
	endsBlockDirLen = 24
)

// IsFlatHeader reports whether b starts with the flat snapshot magic.
func IsFlatHeader(b []byte) bool {
	return len(b) >= len(Magic) && string(b[:len(Magic)]) == string(Magic[:])
}

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
