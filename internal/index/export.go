package index

import (
	"fmt"
	"slices"

	"xseq/internal/match"
	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

// Export is the complete logical content of a built index in plain exported
// form — the same information Save persists, but as in-memory structures a
// different storage layout (the flat single-file format in internal/flat)
// can consume without going through a gob round trip. Slices reference the
// index's own arrays and must be treated as read-only.
type Export struct {
	// Encoder is the designator/path table snapshot.
	Encoder pathenc.Snapshot
	// Schema is the inferred schema the g_best strategy was derived from.
	Schema *schema.Node
	// Repeat is the corpus repeat-path set (sequence.RepeatAware).
	Repeat []pathenc.PathID
	// NumPaths is the encoder's path count; every ExportLink.Path is < it.
	NumPaths int
	// Links holds one entry per non-empty horizontal link, ascending Path.
	Links []ExportLink
	// EndPres/EndOffs/EndLens/EndIDs are the flattened end-node doc-id
	// lists: end node i has pre label EndPres[i] and document ids
	// EndIDs[EndOffs[i] : EndOffs[i]+EndLens[i]]. EndPres is ascending.
	EndPres, EndOffs, EndLens, EndIDs []int32
	// NumDocs, MaxDocID, MaxSerial are the corpus/labeling bounds.
	NumDocs   int
	MaxDocID  int32
	MaxSerial int32
	// InstantiationLimit and OrderEnumerationLimit are the query-shaping
	// options the index was built with (0 means package default).
	InstantiationLimit    int
	OrderEnumerationLimit int
	// Docs is the retained corpus, nil unless KeepDocuments.
	Docs []*xmltree.Document
}

// ExportLink is one horizontal path link: interval labels in ascending Pre
// order plus the sibling-cover metadata. HasCover reports whether any entry
// carries cover metadata (some Anc != -1 or some Embeds bit set); when
// false, Anc and Embeds are nil and every entry implicitly has anc = -1,
// embeds = false — the common case on repetitive markup, which flat layouts
// exploit by omitting the arrays entirely.
type ExportLink struct {
	Path     pathenc.PathID
	Pre, Max []int32
	Anc      []int32
	Embeds   []bool
	HasCover bool
}

// Export extracts the index's logical content. Like Save, it requires the
// probability (g_best) strategy, because a different layout reconstructs
// the strategy from the schema exactly as Load does.
func (ix *Index) Export() (*Export, error) {
	prob, ok := sequence.AsProbability(ix.strategy)
	if !ok {
		return nil, fmt.Errorf("index: only probability-strategy indexes can be exported (have %q)", ix.strategy.Name())
	}
	sch := prob.Model.Schema()
	if sch == nil || sch.Root == nil {
		return nil, fmt.Errorf("index: strategy carries no schema")
	}
	ex := &Export{
		Encoder:               ix.enc.Snapshot(),
		Schema:                sch.Root,
		NumPaths:              ix.enc.NumPaths(),
		EndPres:               ix.ends.pres,
		EndOffs:               ix.ends.offs,
		EndLens:               ix.ends.lens,
		EndIDs:                ix.ends.ids,
		NumDocs:               ix.numDocs,
		MaxDocID:              ix.maxDocID,
		MaxSerial:             ix.maxSerial,
		InstantiationLimit:    ix.opts.InstantiationLimit,
		OrderEnumerationLimit: ix.opts.OrderEnumerationLimit,
		Docs:                  ix.docs,
	}
	for path := range prob.RepeatPaths() {
		ex.Repeat = append(ex.Repeat, path)
	}
	for path, l := range ix.links {
		if l.Len() == 0 {
			continue
		}
		el := ExportLink{Path: path, HasCover: l.HasCover()}
		el.Pre, el.Max, el.Anc, el.Embeds = linkColumns(l)
		if !el.HasCover {
			el.Anc, el.Embeds = nil, nil
		}
		ex.Links = append(ex.Links, el)
	}
	slices.SortFunc(ex.Links, func(a, b ExportLink) int { return int(a.Path) - int(b.Path) })
	slices.Sort(ex.Repeat)
	return ex, nil
}

// linkColumns decodes a link into the plain column form Save persists and
// Export hands to other layouts.
func linkColumns(l *match.Link) (pre, max, anc []int32, embeds []bool) {
	n := l.Len()
	pre, max, anc, embeds = make([]int32, n), make([]int32, n), make([]int32, n), make([]bool, n)
	for k := int32(0); k < n; k++ {
		pre[k], max[k], anc[k], embeds[k] = l.Pre(k), l.Max(k), l.Anc(k), l.Embeds(k)
	}
	return
}

// fillLink is the inverse of linkColumns: it stores the columns, each
// l.Len() long, into l.
func fillLink(l *match.Link, pre, max, anc []int32, embeds []bool) {
	for k := int32(0); k < l.Len(); k++ {
		l.Set(k, pre[k], max[k])
		if anc[k] != -1 {
			l.SetAnc(k, anc[k])
		}
		if embeds[k] {
			l.SetEmbeds(k)
		}
	}
}
