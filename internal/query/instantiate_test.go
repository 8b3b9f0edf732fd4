package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// stepMatchesPath is the per-path name test the child index's postings
// replace: whether pn's name test matches the last designator of p.
func stepMatchesPath(enc *pathenc.Encoder, pn *PNode, p pathenc.PathID) bool {
	sym := enc.LastSymbol(p)
	kind := enc.SymbolKind(sym)
	if pn.IsValue {
		if kind != pathenc.KindValue || enc.TextValues() || pn.Prefix {
			return false
		}
		vs, ok := enc.LookupValueSymbol(pn.Value)
		return ok && vs == sym
	}
	if kind != pathenc.KindElement {
		return false
	}
	return pn.Wildcard || enc.SymbolName(sym) == pn.Name
}

// walkSteps is the reference candidate list of one step: the paths under
// parent that pass pn's name test, found by the stack walk (children pushed
// ascending, so visited descending) for a descendant step and by the
// children list for a child step.
func walkSteps(enc *pathenc.Encoder, ci *pathenc.ChildIndex, pn *PNode, parent pathenc.PathID) []pathenc.PathID {
	var out []pathenc.PathID
	if pn.Axis == AxisChild {
		for _, c := range ci.Children(parent) {
			if stepMatchesPath(enc, pn, c) {
				out = append(out, c)
			}
		}
		return out
	}
	stack := append([]pathenc.PathID(nil), ci.Children(parent)...)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stepMatchesPath(enc, pn, c) {
			out = append(out, c)
		}
		stack = append(stack, ci.Children(c)...)
	}
	return out
}

// walkInstances is the reference instantiation of a one- or two-step path
// pattern: every (root, child) pair in walk order, the first limit kept,
// with the levels a descendant step skips spelled out between them.
func walkInstances(enc *pathenc.Encoder, ci *pathenc.ChildIndex, p *Pattern, limit int) []Instance {
	var out []Instance
	for _, a := range walkSteps(enc, ci, p.Root, pathenc.EmptyPath) {
		if len(p.Root.Children) == 0 {
			out = append(out, Instance{Paths: []pathenc.PathID{a}, Parent: []int{-1}})
		}
		for _, pn := range p.Root.Children {
			for _, c := range walkSteps(enc, ci, pn, a) {
				inst := Instance{Paths: []pathenc.PathID{a}, Parent: []int{-1}}
				for d := enc.Depth(a) + 1; d <= enc.Depth(c); d++ {
					step := c
					for enc.Depth(step) > d {
						step = enc.Parent(step)
					}
					inst.Paths, inst.Parent = append(inst.Paths, step), append(inst.Parent, len(inst.Paths)-1)
				}
				out = append(out, inst)
			}
		}
		if len(out) >= limit {
			return out[:limit]
		}
	}
	return out
}

// wideTable is a record with many differently named children, each holding
// repeated names and values, so '//*' has hundreds of candidates.
func wideTable() *xmltree.Node {
	root := xmltree.NewElem("r")
	for i := 0; i < 60; i++ {
		item := xmltree.NewElem(fmt.Sprintf("n%d", i))
		b := xmltree.NewElem("b")
		b.Children = append(b.Children, xmltree.NewValue(fmt.Sprintf("v%d", i%7)), xmltree.NewElem("c"))
		item.Children = append(item.Children, b, xmltree.NewElem("c"))
		root.Children = append(root.Children, item)
	}
	return root
}

func sameInstances(t *testing.T, q string, got, want []Instance) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instances, walk gives %d", q, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Paths, want[i].Paths) || !slices.Equal(got[i].Parent, want[i].Parent) {
			t.Fatalf("%s: instance %d is %v/%v, walk gives %v/%v", q, i, got[i].Paths, got[i].Parent, want[i].Paths, want[i].Parent)
		}
	}
}

// TestInstantiateLimitKeepsWalkOrder: a '//*'-rooted pattern over a wide
// path table overflows a small instantiation limit, and the instances that
// survive are the ones the walk order keeps — through a reused Scratch, as
// the kernel calls it.
func TestInstantiateLimitKeepsWalkOrder(t *testing.T) {
	enc, ci := corpusEncoder(wideTable())
	var scr Scratch
	for _, q := range []string{"//*", "//*/c", "//*//c", "//*/b", "//b//*", "/r//*", "//c"} {
		p := MustParse(q)
		for _, limit := range []int{1, 5, 13, 4096} {
			want := walkInstances(enc, ci, p, limit)
			if limit == 13 && len(want) < limit && q != "//c" && q != "//*/b" {
				t.Fatalf("%s: only %d instances; the table no longer overflows the limit", q, len(want))
			}
			got, _ := p.InstantiateScratch(enc, ci, limit, &scr)
			sameInstances(t, fmt.Sprintf("%s limit %d", q, limit), got, want)
		}
	}
}

// TestInstantiateDescendantMatchesWalk compares two-step patterns over
// random corpora (both axes, names, '*' and hashed values) with the walk.
func TestInstantiateDescendantMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"A", "B", "C", "*"}
	step := func(axis Axis) *PNode {
		n := names[rng.Intn(len(names))]
		return &PNode{Axis: axis, Name: n, Wildcard: n == "*"}
	}
	var scr Scratch
	for i := 0; i < 200; i++ {
		enc, ci := corpusEncoder(xmltreetest.RandomSubtree(rng, 5, 4), xmltreetest.RandomSubtree(rng, 5, 4))
		root := step(Axis(rng.Intn(2)))
		switch rng.Intn(3) {
		case 1:
			root.Children = append(root.Children, step(Axis(rng.Intn(2))))
		case 2:
			root.Children = append(root.Children, &PNode{Axis: AxisDescendant, IsValue: true, Value: names[rng.Intn(3)]})
		}
		p := &Pattern{Root: root}
		limit := 1 + rng.Intn(8)
		got, _ := p.InstantiateScratch(enc, ci, limit, &scr)
		sameInstances(t, p.String(), got, walkInstances(enc, ci, p, limit))
	}
}

// TestInstantiateSpelledReadingsWhole: an instance list reported whole is
// every instance there is. The three //e steps of /r[//e][//e][//e] over
// r/a/e spell out three implied a levels, which five set partitions read,
// three of them alike up to which e went to which a: a limit of 3 holds
// the three distinct instances, a smaller one is not whole. In /r[//*//*][//*//*], different instances spell out alike
// (r/a over r/a/b/c and r/a/b over r/a/b/c both read a(b(c))), so
// instantiation that stopped at the limit before deduplication is not
// whole either, though fewer than limit instances remain.
func TestInstantiateSpelledReadingsWhole(t *testing.T) {
	chain := xmltree.NewElem("e")
	for _, l := range []string{"d", "c", "b", "a", "r"} {
		chain = xmltree.NewElem(l, chain)
	}
	for _, c := range []struct {
		doc     *xmltree.Node
		q       string
		wholeAt int // the smallest whole limit, or 0 for no pin
	}{
		{xmltree.NewElem("r", xmltree.NewElem("a", xmltree.NewElem("e"))), "/r[//e][//e][//e]", 3},
		{chain, "/r[//*//*][//*//*]", 0},
	} {
		enc, ci := corpusEncoder(c.doc)
		p := MustParse(c.q)
		var scr Scratch
		all, whole := p.InstantiateScratch(enc, ci, 1<<16, &scr)
		if !whole {
			t.Fatalf("%s: not whole at limit %d", c.q, 1<<16)
		}
		want := keys(all)
		for limit := 1; limit <= len(want)+4; limit++ {
			got, whole := p.InstantiateScratch(enc, ci, limit, &scr)
			if whole && !slices.Equal(keys(got), want) || c.wholeAt > 0 && whole != (limit >= c.wholeAt) {
				t.Fatalf("%s limit %d: %d of %d instances, whole %v", c.q, limit, len(got), len(want), whole)
			}
		}
	}
}

// keys returns the instances' dedup keys, sorted.
func keys(insts []Instance) []string {
	var out []string
	for _, in := range insts {
		out = append(out, in.Key())
	}
	slices.Sort(out)
	return out
}
