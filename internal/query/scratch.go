package query

import (
	"strconv"

	"xseq/internal/pathenc"
)

// Scratch carries the reusable working set of Instantiate: the anchor
// candidate buffer, the instance dedup set, the key-rendering buffer, and
// the backing array of the returned instance slice. A query executor keeps
// one Scratch per in-flight query (pooled between queries) so the
// steady-state instantiation path stops reallocating these on every call.
// The zero value is ready to use.
//
// Ownership: the []Instance returned by InstantiateScratch is backed by the
// Scratch and is overwritten by the next InstantiateScratch call with the
// same Scratch — callers must finish with it (or copy it) before reuse.
type Scratch struct {
	anchors []pathenc.PathID
	seen    map[string]bool
	keyBuf  []byte
	insts   []Instance
}

// appendKey renders the instance's dedup key into b — the allocation-free
// counterpart of Key, used with the map-index-by-string(b) lookup form that
// the compiler keeps off the heap.
func (in Instance) appendKey(b []byte) []byte {
	for i := range in.Paths {
		b = strconv.AppendInt(b, int64(in.Paths[i]), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(in.Parent[i]), 10)
		b = append(b, ',')
	}
	return b
}

// Key returns a dedup key.
func (in Instance) Key() string {
	return string(in.appendKey(nil))
}

// InstantiateScratch is Instantiate reusing scr's buffers. The returned
// slice is valid until the next call with the same Scratch; see Scratch.
func (p *Pattern) InstantiateScratch(enc *pathenc.Encoder, ci *pathenc.ChildIndex, limit int, scr *Scratch) []Instance {
	if limit <= 0 {
		limit = DefaultInstantiationLimit
	}
	if p == nil || p.Root == nil {
		return nil
	}
	// Anchor candidates for the root: a descendant-axis root reads them
	// straight out of the child index, a child-axis root filters the few
	// top-level paths into the scratch.
	var anchors []pathenc.PathID
	switch p.Root.Axis {
	case AxisChild:
		anchors = scr.anchors[:0]
		if sym, wildcard, ok := nameTest(enc, p.Root); ok {
			for _, c := range ci.Children(pathenc.EmptyPath) {
				last := enc.LastSymbol(c)
				if wildcard && enc.SymbolKind(last) == pathenc.KindElement || !wildcard && last == sym {
					anchors = append(anchors, c)
				}
			}
		}
		scr.anchors = anchors
	case AxisDescendant:
		anchors = descendantCandidates(enc, ci, p.Root, pathenc.EmptyPath)
	}
	out := scr.insts[:0]
	if scr.seen == nil {
		scr.seen = make(map[string]bool)
	}
	seen := scr.seen
	clear(seen)
	for _, a := range anchors {
		insts := instantiateChildren(enc, ci, p.Root, a, limit-len(out))
		for _, chTrees := range insts {
			inst := Instance{Paths: []pathenc.PathID{a}, Parent: []int{-1}}
			appendInstance(&inst, chTrees, 0)
			scr.keyBuf = inst.appendKey(scr.keyBuf[:0])
			if !seen[string(scr.keyBuf)] {
				seen[string(scr.keyBuf)] = true
				out = append(out, inst)
			}
			if len(out) >= limit {
				scr.insts = out
				return out
			}
		}
	}
	scr.insts = out
	return out
}
