package flat

import (
	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

// Head is what a snapshot holds besides its bulk sections. Build takes it
// as the Go values the caller already has; only Save encodes it (META,
// DICT, DOCS), so a build costs no gob round trip.
type Head struct {
	// Enc is the designator/path table the trie's paths come from.
	Enc *pathenc.Encoder
	// Strategy sequenced the documents. Queries need it to be a
	// sequence.Prioritizer; Save needs g_best (*sequence.Probability),
	// whose schema it persists.
	Strategy sequence.Strategy
	// NumDocs and MaxDocID bound the corpus.
	NumDocs  int
	MaxDocID int32
	// InstantiationLimit caps wildcard instances per query (0: the query
	// package default).
	InstantiationLimit int
	// Docs is the retained corpus, nil unless kept.
	Docs []*xmltree.Document
}

// Build freezes tr, which creates its nodes in pre-order with their labels
// (the paper's Tree Labeling step), lays its path links and document-id
// lists out (Path Linking) as the LINKDIR, LINKS and ENDS sections of one
// heap buffer, and returns the index over that buffer. The buffer has the
// layout a saved file gives those sections, so page accounting charges the
// pages the file would have. The trie is not retained.
func Build(tr *trie.Trie, h Head) *Index {
	numNodes := tr.NumNodes()
	// One pass over the nodes in pre-order (node ids are n⊢) sizes every
	// link and gives each node its nearest same-path ancestor from a
	// per-path stack of open entries. A link stores cover columns only if
	// some entry has such an ancestor.
	numPaths := h.Enc.NumPaths()
	counts := make([]int32, numPaths)
	cover := make([]bool, numPaths)
	anc := make([]int32, numNodes+1)
	type open struct{ entry, max int32 }
	stacks := make([][]open, numPaths)
	for n := trie.NodeID(1); int(n) <= numNodes; n++ {
		p, pre := tr.Path(n), int32(n)
		st := stacks[p]
		for len(st) > 0 && st[len(st)-1].max < pre {
			st = st[:len(st)-1]
		}
		anc[n] = -1
		if len(st) > 0 {
			anc[n], cover[p] = st[len(st)-1].entry, true
		}
		stacks[p] = append(st, open{counts[p], tr.Max(n)})
		counts[p]++
	}
	ends := encodeEnds(tr)

	linksOff := align8(bulkBase + numPaths*linkDirEntryLen)
	linksLen := 0
	for p, c := range counts {
		linksLen += align8(linkBytes(int(c), cover[p]))
	}
	endsOff := linksOff + linksLen
	data := make([]byte, endsOff+len(ends))
	copy(data[endsOff:], ends)
	ix := &Index{data: data, enc: h.Enc, strategy: h.Strategy, docs: h.Docs, links: make([]Link, numPaths)}
	ix.sections[secLinkDir] = section{off: bulkBase, len: uint64(numPaths * linkDirEntryLen)}
	ix.sections[secLinks] = section{off: uint64(linksOff), len: uint64(linksLen)}
	ix.sections[secEnds] = section{off: uint64(endsOff), len: uint64(len(ends))}
	dir, off := data[bulkBase:], 0
	for p, c := range counts {
		if c == 0 {
			continue
		}
		row := dir[p*linkDirEntryLen:]
		le.PutUint32(row, uint32(c))
		if cover[p] {
			le.PutUint32(row[4:], linkHasCover)
		}
		le.PutUint64(row[8:], uint64(off))
		ix.links[p] = newLink(data[linksOff+off:], c, cover[p], uint64(linksOff+off))
		ix.numLinks++
		off += align8(linkBytes(int(c), cover[p]))
	}
	// Fill the links in pre-order, so each one ascends by pre.
	clear(counts)
	for n := trie.NodeID(1); int(n) <= numNodes; n++ {
		p := tr.Path(n)
		l, k := &ix.links[p], counts[p]
		counts[p]++
		l.set(k, int32(n), tr.Max(n))
		if l.HasCover() {
			l.setAnc(k, anc[n])
			if anc[n] >= 0 {
				l.setEmbeds(anc[n])
			}
		}
	}
	ix.initEnds()
	ix.meta = flatMeta{
		NumDocs:            h.NumDocs,
		MaxDocID:           h.MaxDocID,
		MaxSerial:          int32(numNodes),
		InstantiationLimit: h.InstantiationLimit,
	}
	ix.prio, _ = h.Strategy.(sequence.Prioritizer)
	ix.ci = h.Enc.BuildChildIndex()
	return ix
}

// encodeEnds lays tr's end nodes out as the ENDS section, by ascending pre.
// The virtual root ends only empty sequences, which no query reaches.
func encodeEnds(tr *trie.Trie) []byte {
	first := 0
	if tr.NumEnds() > 0 {
		if n, _ := tr.End(0); n == trie.Root {
			first = 1
		}
	}
	numEnds := tr.NumEnds() - first
	dirLen := 4 + endsBlocks(numEnds)*endsDirRowLen
	out := make([]byte, dirLen, dirLen+4*numEnds)
	le.PutUint32(out, uint32(numEnds))
	var multi []byte
	prev := int32(0)
	for i := 0; i < numEnds; i++ {
		n, ids := tr.End(first + i)
		pre := int32(n)
		delta := uint64(0)
		if i%endsBlockSize == 0 {
			row := out[4+i/endsBlockSize*endsDirRowLen:]
			le.PutUint32(row, uint32(pre))
			le.PutUint64(row[4:], uint64(len(out)))
		} else {
			delta = uint64(pre - prev)
		}
		prev = pre
		if len(ids) == 1 {
			out = putUvarint(out, delta<<1)
			out = putUvarint(out, uint64(ids[0]))
			continue
		}
		multi = multi[:0]
		last := int32(0)
		for _, id := range ids {
			multi = putUvarint(multi, zigzag(id-last))
			last = id
		}
		out = putUvarint(out, delta<<1|1)
		out = putUvarint(out, uint64(len(ids)))
		out = putUvarint(out, uint64(len(multi)))
		out = append(out, multi...)
	}
	return out
}
