package flat

import (
	"xseq/internal/match"
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
	// sequence.Prioritizer; Save needs the probability strategy (g_best or
	// weighted), whose schema it persists.
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

// Build freezes tr, which labels it (the paper's Tree Labeling step), lays
// its path links and document-id lists out (Path Linking) as the LINKDIR,
// LINKS and ENDS sections of one heap buffer, and returns the engine over
// that buffer. The buffer has the layout a saved file gives those sections,
// so page accounting charges the pages the file would have. The trie is
// not retained.
func Build(tr *trie.Trie, h Head) *Index {
	tr.Freeze()
	// byPre[i] is the node labelled i+1.
	byPre := make([]trie.NodeID, tr.NumNodes())
	for n := trie.NodeID(1); int(n) <= len(byPre); n++ {
		byPre[tr.Pre(n)-1] = n
	}
	// One pre-order pass sizes every link and gives each node its nearest
	// same-path ancestor from a per-path stack of open entries. A link
	// stores cover columns only if some entry has such an ancestor.
	numPaths := h.Enc.NumPaths()
	counts := make([]int32, numPaths)
	cover := make([]bool, numPaths)
	anc := make([]int32, len(byPre))
	type open struct{ entry, max int32 }
	stacks := make([][]open, numPaths)
	var endPres []int32
	var endIDs [][]int32
	for i, n := range byPre {
		p, pre := tr.Path(n), int32(i+1)
		st := stacks[p]
		for len(st) > 0 && st[len(st)-1].max < pre {
			st = st[:len(st)-1]
		}
		anc[i] = -1
		if len(st) > 0 {
			anc[i], cover[p] = st[len(st)-1].entry, true
		}
		stacks[p] = append(st, open{counts[p], tr.Max(n)})
		counts[p]++
		if ids := tr.Docs(n); len(ids) > 0 {
			endPres, endIDs = append(endPres, pre), append(endIDs, ids)
		}
	}
	ends := encodeEnds(endPres, endIDs)

	linksOff := align8(bulkBase + numPaths*linkDirEntryLen)
	linksLen := 0
	for p, c := range counts {
		linksLen += align8(match.LinkBytes(int(c), cover[p]))
	}
	endsOff := linksOff + linksLen
	data := make([]byte, endsOff+len(ends))
	copy(data[endsOff:], ends)
	ix := &Index{data: data, enc: h.Enc, strategy: h.Strategy, docs: h.Docs, links: make([]match.Link, numPaths)}
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
		ix.links[p] = match.NewLink(data[linksOff+off:], c, cover[p], uint64(linksOff+off))
		ix.numLinks++
		off += align8(match.LinkBytes(int(c), cover[p]))
	}
	// Fill the links in pre order, so each one ascends by pre.
	clear(counts)
	for i, n := range byPre {
		p := tr.Path(n)
		l, k := &ix.links[p], counts[p]
		counts[p]++
		l.Set(k, int32(i+1), tr.Max(n))
		if l.HasCover() {
			l.SetAnc(k, anc[i])
			if anc[i] >= 0 {
				l.SetEmbeds(anc[i])
			}
		}
	}
	ix.initEnds()
	ix.meta = flatMeta{
		NumDocs:            h.NumDocs,
		MaxDocID:           h.MaxDocID,
		MaxSerial:          int32(len(byPre)),
		InstantiationLimit: h.InstantiationLimit,
	}
	ix.prio, _ = h.Strategy.(sequence.Prioritizer)
	ix.ci = h.Enc.BuildChildIndex()
	ix.initEngine()
	return ix
}

// encodeEnds lays the end nodes out as the ENDS section: pres ascends, and
// lists[i] holds the ids of the documents whose sequences end at pres[i].
func encodeEnds(pres []int32, lists [][]int32) []byte {
	dirLen := 4 + endsBlocks(len(pres))*endsDirRowLen
	out := make([]byte, dirLen, dirLen+4*len(pres))
	le.PutUint32(out, uint32(len(pres)))
	var multi []byte
	for i, pre := range pres {
		delta := uint64(0)
		if i%endsBlockSize == 0 {
			row := out[4+i/endsBlockSize*endsDirRowLen:]
			le.PutUint32(row, uint32(pre))
			le.PutUint64(row[4:], uint64(len(out)))
		} else {
			delta = uint64(pre - pres[i-1])
		}
		ids := lists[i]
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
