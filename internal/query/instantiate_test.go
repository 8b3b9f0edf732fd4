package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/xmltree"
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
// pattern: every (root, child) pair in walk order, the first limit kept.
func walkInstances(enc *pathenc.Encoder, ci *pathenc.ChildIndex, p *Pattern, limit int) []Instance {
	var out []Instance
	for _, a := range walkSteps(enc, ci, p.Root, pathenc.EmptyPath) {
		if len(p.Root.Children) == 0 {
			out = append(out, Instance{Paths: []pathenc.PathID{a}, Parent: []int{-1}})
		}
		for _, pn := range p.Root.Children {
			for _, c := range walkSteps(enc, ci, pn, a) {
				out = append(out, Instance{Paths: []pathenc.PathID{a, c}, Parent: []int{-1, 0}})
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
			sameInstances(t, fmt.Sprintf("%s limit %d", q, limit), p.InstantiateScratch(enc, ci, limit, &scr), want)
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
		enc, ci := corpusEncoder(randomTree(rng, 5, 4), randomTree(rng, 5, 4))
		root := step(Axis(rng.Intn(2)))
		switch rng.Intn(3) {
		case 1:
			root.Children = append(root.Children, step(Axis(rng.Intn(2))))
		case 2:
			root.Children = append(root.Children, &PNode{Axis: AxisDescendant, IsValue: true, Value: names[rng.Intn(3)]})
		}
		p := &Pattern{Root: root}
		limit := 1 + rng.Intn(8)
		sameInstances(t, p.String(), p.InstantiateScratch(enc, ci, limit, &scr), walkInstances(enc, ci, p, limit))
	}
}
