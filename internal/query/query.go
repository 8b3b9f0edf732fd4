// Package query models tree-pattern queries — the basic query unit of
// sequence-based XML indexing — plus an XPath-subset parser covering the
// query classes the paper evaluates (Tables 4 and 8): child steps ('/'),
// descendant steps ('//'), the single-step wildcard ('*'), branching
// predicates ('[...]') and value predicates ("[location='United States']",
// "[text='32']").
//
// A Pattern is matched against document trees in two ways: MatchesTree is
// the ground-truth structural evaluator (the semantics a structure match
// must have); Instantiate resolves wildcards against the interned path
// table, producing concrete path-tree instances ready for sequencing — the
// paper's "'*' is instantialized to symbol D" step.
package query

import (
	"errors"
	"fmt"
	"strings"

	"xseq/internal/pathenc"
	"xseq/internal/xmltree"
)

// Axis is how a pattern node relates to its parent (or, for the root, to
// the document root).
type Axis uint8

const (
	// AxisChild is '/': the node is a child of its parent match (the root
	// case: the node is the document root).
	AxisChild Axis = iota
	// AxisDescendant is '//': the node is a strict descendant of its
	// parent match (the root case: any node, including the root).
	AxisDescendant
)

func (a Axis) String() string {
	if a == AxisDescendant {
		return "//"
	}
	return "/"
}

// PNode is one node of a tree-pattern query.
type PNode struct {
	Axis     Axis
	Wildcard bool   // name test '*' (element nodes only)
	Name     string // element name when !Wildcard && !IsValue
	IsValue  bool   // value leaf: matches a value node with text Value
	Value    string
	// Prefix makes a value leaf match any value starting with Value
	// (written [text='bos*']). Answerable through the index only with the
	// text-sequence value representation; the ground-truth evaluator
	// supports it always.
	Prefix   bool
	Children []*PNode
}

// Pattern is a tree-pattern query.
type Pattern struct {
	Root *PNode
	// Text preserves the original query string when parsed.
	Text string
}

// HasBranching reports whether any pattern node has more than one child —
// i.e. whether the pattern is a twig rather than a simple path.
func (p *Pattern) HasBranching() bool {
	if p == nil || p.Root == nil {
		return false
	}
	branching := false
	var walk func(n *PNode)
	walk = func(n *PNode) {
		if len(n.Children) > 1 {
			branching = true
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return branching
}

// Size reports the number of pattern nodes — the paper's "query length".
func (p *Pattern) Size() int {
	var count func(n *PNode) int
	count = func(n *PNode) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	if p == nil || p.Root == nil {
		return 0
	}
	return count(p.Root)
}

// String renders the pattern in XPath-like syntax.
func (p *Pattern) String() string {
	if p == nil || p.Root == nil {
		return ""
	}
	var b strings.Builder
	writePNode(&b, p.Root)
	return b.String()
}

func writePNode(b *strings.Builder, n *PNode) {
	b.WriteString(n.Axis.String())
	switch {
	case n.IsValue:
		fmt.Fprintf(b, "text()='%s%s'", n.Value, starIf(n.Prefix))
		return
	case n.Wildcard:
		b.WriteByte('*')
	default:
		b.WriteString(n.Name)
	}
	// Render all but the last non-value child as predicates; a single value
	// child renders as [text='v']; the last element child continues the
	// path only if it's the only child.
	if len(n.Children) == 0 {
		return
	}
	if len(n.Children) == 1 && !n.Children[0].IsValue {
		writePNode(b, n.Children[0])
		return
	}
	for _, c := range n.Children {
		b.WriteByte('[')
		if c.IsValue {
			fmt.Fprintf(b, "text='%s%s'", c.Value, starIf(c.Prefix))
		} else {
			var sub strings.Builder
			writePNode(&sub, c)
			s := sub.String()
			// A descendant-axis child keeps its "//" (the parser reads a
			// bare leading "/" inside a predicate as the child axis).
			if !strings.HasPrefix(s, "//") {
				s = strings.TrimPrefix(s, "/")
			}
			b.WriteString(s)
		}
		b.WriteByte(']')
	}
}

func starIf(prefix bool) string {
	if prefix {
		return "*"
	}
	return ""
}

// FromTree converts a concrete tree into a pattern of child axes — useful
// for generating queries by extracting substructures from documents.
func FromTree(n *xmltree.Node) *Pattern {
	return &Pattern{Root: pnodeFromTree(n, AxisChild)}
}

func pnodeFromTree(n *xmltree.Node, axis Axis) *PNode {
	p := &PNode{Axis: axis}
	if n.IsValue {
		p.IsValue = true
		p.Value = n.Value
	} else {
		p.Name = n.Name
	}
	for _, c := range n.Children {
		p.Children = append(p.Children, pnodeFromTree(c, AxisChild))
	}
	return p
}

// ToTree converts a fully concrete pattern (no wildcards, no descendant
// axes) to a plain tree; it errors otherwise.
func (p *Pattern) ToTree() (*xmltree.Node, error) {
	var conv func(n *PNode) (*xmltree.Node, error)
	conv = func(n *PNode) (*xmltree.Node, error) {
		if n.Wildcard {
			return nil, fmt.Errorf("query: pattern contains wildcard")
		}
		if n.Axis == AxisDescendant {
			return nil, fmt.Errorf("query: pattern contains descendant axis")
		}
		var out *xmltree.Node
		if n.IsValue {
			out = xmltree.NewValue(n.Value)
		} else {
			out = xmltree.NewElem(n.Name)
		}
		for _, c := range n.Children {
			cn, err := conv(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, cn)
		}
		return out, nil
	}
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("query: empty pattern")
	}
	return conv(p.Root)
}

// ---------------------------------------------------------------------------
// Ground-truth evaluation
// ---------------------------------------------------------------------------

// MatchesTree reports whether the pattern structurally matches the document:
// there is a mapping m of pattern nodes to document nodes preserving labels
// and axes, injective among the children of each pattern node. A child-axis
// root must map to the document root; a descendant-axis root may map
// anywhere.
func (p *Pattern) MatchesTree(doc *xmltree.Node) bool {
	if p == nil || p.Root == nil {
		return true
	}
	if doc == nil {
		return false
	}
	if p.Root.Axis == AxisChild {
		return matchAt(doc, p.Root)
	}
	found := false
	doc.Walk(func(d *xmltree.Node) bool {
		if found {
			return false
		}
		if matchAt(d, p.Root) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Eval brute-force evaluates the pattern over a corpus, returning matching
// document IDs in input order — the reference answer for every engine.
func Eval(docs []*xmltree.Document, p *Pattern) []int32 {
	var out []int32
	for _, d := range docs {
		if p.MatchesTree(d.Root) {
			out = append(out, d.ID)
		}
	}
	return out
}

func testMatches(d *xmltree.Node, p *PNode) bool {
	if p.IsValue {
		if !d.IsValue {
			return false
		}
		if p.Prefix {
			return strings.HasPrefix(d.Value, p.Value)
		}
		return d.Value == p.Value
	}
	if d.IsValue {
		return false
	}
	return p.Wildcard || p.Name == d.Name
}

// matchAt checks the pattern rooted at p with its root pinned to d.
func matchAt(d *xmltree.Node, p *PNode) bool {
	if !testMatches(d, p) {
		return false
	}
	if len(p.Children) == 0 {
		return true
	}
	// Candidate witnesses per pattern child.
	cand := make([][]*xmltree.Node, len(p.Children))
	for i, pc := range p.Children {
		switch pc.Axis {
		case AxisChild:
			for _, dc := range d.Children {
				if matchAt(dc, pc) {
					cand[i] = append(cand[i], dc)
				}
			}
		case AxisDescendant:
			for _, dc := range d.Children {
				dc.Walk(func(x *xmltree.Node) bool {
					if matchAt(x, pc) {
						cand[i] = append(cand[i], x)
					}
					return true
				})
			}
		}
		if len(cand[i]) == 0 {
			return false
		}
	}
	// Injective assignment among this pattern node's children.
	order := make([]int, len(p.Children))
	for i := range order {
		order[i] = i
	}
	// Fewest candidates first.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(cand[order[j]]) < len(cand[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	used := map[*xmltree.Node]bool{}
	var assign func(k int) bool
	assign = func(k int) bool {
		if k == len(order) {
			return true
		}
		for _, w := range cand[order[k]] {
			if used[w] {
				continue
			}
			used[w] = true
			if assign(k + 1) {
				return true
			}
			delete(used, w)
		}
		return false
	}
	return assign(0)
}

// ---------------------------------------------------------------------------
// Wildcard instantiation against the path table
// ---------------------------------------------------------------------------

// Instance is one concrete instantiation of a pattern: a tree of interned
// paths. Node i's concrete path is Paths[i]; Parent[i] is its pattern
// parent's index (-1 for the root). Paths may skip levels (descendant
// steps), which is fine for subsequence matching: a node's trie ancestors
// always include every ancestor path.
type Instance struct {
	Paths  []pathenc.PathID
	Parent []int
}

// DefaultInstantiationLimit caps the number of concrete instances per
// pattern; wildcard-heavy queries over rich schemas can otherwise explode.
const DefaultInstantiationLimit = 4096

// ErrQueryTooBroad is matched by every *TooBroadError (errors.Is).
var ErrQueryTooBroad = errors.New("query too broad")

// TooBroadError fails a pattern with more wildcard instances than the
// instantiation limit, in place of an answer from the instances under it,
// which would drop documents. Reached is where instantiation stopped:
// Limit+1.
type TooBroadError struct{ Limit, Reached int }

func (e *TooBroadError) Error() string {
	return fmt.Sprintf("%v: the pattern reached %d wildcard instances, over the instantiation limit of %d", ErrQueryTooBroad, e.Reached, e.Limit)
}

func (e *TooBroadError) Is(target error) bool { return target == ErrQueryTooBroad }

// Instantiate resolves the pattern's wildcards and descendant steps against
// the interned path table, returning concrete instances. A value leaf
// resolves through the encoder's value hash. Instances whose required paths
// are absent from the table are pruned (they can match no document). A
// limit <= 0 uses DefaultInstantiationLimit; at most limit instances are
// returned. Steady-state callers use InstantiateScratch instead, which
// reuses the working buffers and reports whether the list is whole.
func (p *Pattern) Instantiate(enc *pathenc.Encoder, ci *pathenc.ChildIndex, limit int) []Instance {
	var scr Scratch
	insts, _ := p.InstantiateScratch(enc, ci, limit, &scr)
	return insts
}

// instTree is a concrete subtree: node path plus child subtrees.
type instTree struct {
	path     pathenc.PathID
	children []instTree
}

func appendInstance(inst *Instance, children []instTree, parentIdx int) {
	for _, c := range children {
		idx := len(inst.Paths)
		inst.Paths = append(inst.Paths, c.path)
		inst.Parent = append(inst.Parent, parentIdx)
		appendInstance(inst, c.children, idx)
	}
}

// instantiateChildren returns, for a pattern node matched at anchor path,
// the combinations of concrete child subtrees (cartesian product across the
// pattern's children, capped).
func instantiateChildren(enc *pathenc.Encoder, ci *pathenc.ChildIndex, pn *PNode, anchor pathenc.PathID, limit int) [][]instTree {
	if limit <= 0 {
		limit = 1
	}
	combos := [][]instTree{{}}
	for _, pc := range pn.Children {
		opts := instantiateNode(enc, ci, pc, anchor, limit)
		if len(opts) == 0 {
			return nil // this child can match nothing: prune
		}
		var next [][]instTree
		for _, combo := range combos {
			for _, opt := range opts {
				nc := append(append([]instTree{}, combo...), opt)
				next = append(next, nc)
				if len(next) >= limit {
					break
				}
			}
			if len(next) >= limit {
				break
			}
		}
		combos = next
	}
	return combos
}

// instantiateNode returns concrete subtrees for one pattern node anchored
// under the given parent path.
func instantiateNode(enc *pathenc.Encoder, ci *pathenc.ChildIndex, pn *PNode, parent pathenc.PathID, limit int) []instTree {
	var (
		one        [1]pathenc.PathID
		candidates []pathenc.PathID
		elemsOnly  bool // candidates still need the '*' element filter
	)
	switch pn.Axis {
	case AxisChild:
		if pn.IsValue {
			if enc.TextValues() && len(pn.Value) > 0 {
				// Text-sequence representation: the value (or prefix)
				// resolves to a chain of character paths. The chain is
				// returned directly — value leaves have no children.
				return charChain(enc, pn, parent, limit)
			}
			if pn.Prefix {
				// Atomic values cannot answer prefix tests (the hash
				// destroys prefixes); prune — QueryVerified or the text
				// representation handle these.
				return nil
			}
			if sym, ok := enc.LookupValueSymbol(pn.Value); ok {
				one[0] = enc.Lookup(parent, sym)
				candidates = one[:]
			}
		} else if pn.Wildcard {
			candidates, elemsOnly = ci.Children(parent), true
		} else if sym, ok := enc.LookupElementSymbol(pn.Name); ok {
			one[0] = enc.Lookup(parent, sym)
			candidates = one[:]
		}
	case AxisDescendant:
		candidates = descendantCandidates(enc, ci, pn, parent)
	}
	var out []instTree
	for _, c := range candidates {
		if c == pathenc.InvalidPath || elemsOnly && enc.SymbolKind(enc.LastSymbol(c)) != pathenc.KindElement {
			continue
		}
		subs := instantiateChildren(enc, ci, pn, c, limit)
		for _, sub := range subs {
			out = append(out, instTree{path: c, children: sub})
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// charChain resolves a value (or prefix) test into a chain of character
// paths under parent; an unresolvable character prunes the chain.
func charChain(enc *pathenc.Encoder, pn *PNode, parent pathenc.PathID, limit int) []instTree {
	syms, ok := enc.LookupCharSymbols(pn.Value)
	if !ok {
		return nil
	}
	p := parent
	var paths []pathenc.PathID
	for _, sym := range syms {
		p = enc.Lookup(p, sym)
		if p == pathenc.InvalidPath {
			return nil
		}
		paths = append(paths, p)
	}
	// Build the nested chain bottom-up.
	var node instTree
	for i := len(paths) - 1; i >= 0; i-- {
		if i == len(paths)-1 {
			node = instTree{path: paths[i]}
		} else {
			node = instTree{path: paths[i], children: []instTree{node}}
		}
	}
	_ = limit
	return []instTree{node}
}

// nameTest resolves a root or descendant step's name test once: the
// designator a candidate path must end in, or any element designator for
// '*'; ok is false when no path can pass. Value tests resolve through the
// atomic value hash; with the text-sequence representation, and for prefix
// tests, they match nothing (values have no single designator).
func nameTest(enc *pathenc.Encoder, pn *PNode) (sym pathenc.Symbol, wildcard, ok bool) {
	switch {
	case pn.IsValue:
		if enc.TextValues() || pn.Prefix {
			return 0, false, false
		}
		sym, ok = enc.LookupValueSymbol(pn.Value)
		return sym, false, ok
	case pn.Wildcard:
		return 0, true, true
	}
	sym, ok = enc.LookupElementSymbol(pn.Name)
	return sym, false, ok
}

// descendantCandidates returns the strict descendants of parent that pass
// pn's name test, in the child index's pre-order; see pathenc.ChildIndex.
// The slice aliases the index.
func descendantCandidates(enc *pathenc.Encoder, ci *pathenc.ChildIndex, pn *PNode, parent pathenc.PathID) []pathenc.PathID {
	sym, wildcard, ok := nameTest(enc, pn)
	switch {
	case !ok:
		return nil
	case wildcard:
		return ci.ElementDescendants(parent)
	}
	return ci.DescendantsEnding(parent, sym)
}
