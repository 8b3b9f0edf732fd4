package flat

import (
	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// NumDocuments reports the corpus size.
func (ix *Index) NumDocuments() int { return ix.meta.NumDocs }

// NumNodes reports the trie node count — the index-size metric of Figures
// 14/15 and Tables 5/6.
func (ix *Index) NumNodes() int { return int(ix.meta.MaxSerial) }

// MaxSerial returns the largest pre-order serial (the root's n⊣).
func (ix *Index) MaxSerial() int32 { return ix.meta.MaxSerial }

// NumLinks reports the number of non-empty horizontal links.
func (ix *Index) NumLinks() int { return ix.numLinks }

// Documents returns the retained corpus (nil unless kept, or if an opened
// snapshot's DOCS section is damaged — Verify queries surface that error
// instead).
func (ix *Index) Documents() []*xmltree.Document {
	docs, _, _ := ix.corpus()
	return docs
}

// Document returns the retained document with the given id, nil when the
// corpus holds none, and whether a corpus is retained at all.
func (ix *Index) Document(id int32) (*xmltree.Document, bool) {
	_, byID, _ := ix.corpus()
	if byID == nil {
		return nil, false
	}
	if id < 0 || int(id) >= len(byID) {
		return nil, true
	}
	return byID[id], true
}

// InstantiationLimit returns the cap on a query's wildcard instances the
// index was built with (0: query.DefaultInstantiationLimit).
func (ix *Index) InstantiationLimit() int { return ix.meta.InstantiationLimit }

// Encoder returns the designator/path table.
func (ix *Index) Encoder() *pathenc.Encoder { return ix.enc }

// ChildIdx exposes the frozen path-table snapshot for query instantiation.
func (ix *Index) ChildIdx() *pathenc.ChildIndex { return ix.ci }

// Strategy returns the sequencing strategy: the one a build was given, or
// the g_best strategy an opened snapshot rebuilt from its schema.
func (ix *Index) Strategy() sequence.Strategy { return ix.strategy }

// Export returns ix.
//
// Deprecated: it remains for callers of the conversion from the former heap
// layout, which exported an index and passed the export to WriteFile; every
// index is already flat.
func (ix *Index) Export() (*Index, error) { return ix, nil }
