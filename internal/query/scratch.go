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

// InstantiateScratch is Instantiate reusing scr's buffers, and reports
// whether the instances it returns are all there are: false when the
// pattern has more than limit instances, and when it stopped before it
// could tell (spelling out skipped levels gave more than limit readings,
// some of which may be alike). The returned
// slice is valid until the next call with the same Scratch; see Scratch.
func (p *Pattern) InstantiateScratch(enc *pathenc.Encoder, ci *pathenc.ChildIndex, limit int, scr *Scratch) ([]Instance, bool) {
	if limit <= 0 {
		limit = DefaultInstantiationLimit
	}
	if p == nil || p.Root == nil {
		return nil, true
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
	clear(scr.seen)
	// Instantiation stops at bound, one past the limit, so that a pattern
	// with exactly limit instances is told from a broader one.
	bound := limit + 1
	complete := func(ok bool) ([]Instance, bool) {
		scr.insts = out
		if len(out) > limit {
			return out[:limit], false
		}
		return out, ok
	}
	for _, a := range anchors {
		want := bound - len(out)
		insts := instantiateChildren(enc, ci, p.Root, a, want)
		for _, chTrees := range insts {
			if !skips(enc, a, chTrees) {
				out = scr.add(out, a, chTrees)
			} else {
				forests, ok := spellOut(enc, a, chTrees, bound)
				if !ok {
					return complete(false)
				}
				for _, forest := range forests {
					out = scr.add(out, a, forest)
				}
			}
			if len(out) >= bound {
				return complete(false)
			}
		}
		// instantiateChildren stops at want; spelled-out forests of
		// different instances may coincide, so a stop that left out short
		// of bound may have dropped instances.
		if len(insts) >= want {
			return complete(false)
		}
	}
	return complete(true)
}

// add appends the instance of root path a over forest to out, unless out
// holds it already.
func (scr *Scratch) add(out []Instance, a pathenc.PathID, forest []instTree) []Instance {
	inst := Instance{Paths: []pathenc.PathID{a}, Parent: []int{-1}}
	appendInstance(&inst, forest, 0)
	scr.keyBuf = inst.appendKey(scr.keyBuf[:0])
	if scr.seen[string(scr.keyBuf)] {
		return out
	}
	scr.seen[string(scr.keyBuf)] = true
	return append(out, inst)
}
