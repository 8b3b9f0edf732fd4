// Package schema implements the probability framework of Section 5 of the
// paper: a schema tree (DTD-like) annotated with node occurrence
// probabilities p(C|parent), from which p(C|root) is derived, optionally
// re-weighted by a query-frequency/selectivity weight w(C) into
// p'(C|root) = p(C|root) · w(C) (Eq 6). The probability-based strategy
// g_best sequences document nodes in descending p'(·|root), which maximizes
// prefix sharing in the index and lets selective nodes be promoted.
//
// Schemas are either constructed programmatically (the synthetic, XMark-like
// and DBLP-like generators build them), or inferred from a sample of
// documents ("approximate it by data sampling", Section 5.2).
package schema

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"xseq/internal/pathenc"
	"xseq/internal/xmltree"
)

// Node is one node of the schema tree. A value-slot node (IsValue) stands
// for "this element can carry a value"; ValueRange is the number of distinct
// values the slot draws from, so the probability of one particular value is
// PCond/ValueRange given the parent (the paper's two-factor decomposition of
// p(C=v1|P) in Section 5.2).
type Node struct {
	Name       string
	IsValue    bool
	ValueRange int
	// Values optionally enumerates the slot's vocabulary; when empty, the
	// generator synthesizes ValueRange values "name_i".
	Values []string
	// ZipfS skews value selection (s parameter of a Zipf distribution);
	// 0 means uniform.
	ZipfS float64

	// PCond is p(C|parent): the probability the node exists given its
	// parent exists. The root's PCond is p(root|ε), normally 1.
	PCond float64
	// PRoot is p(C|root), filled in by ComputeRootProbabilities.
	PRoot float64
	// Weight is w(C) of Eq 6; 0 is treated as the default weight 1.
	Weight float64

	// MinRepeat/MaxRepeat instantiate identical sibling nodes: given that
	// the node occurs, a document contains between MinRepeat and MaxRepeat
	// copies (uniformly). Both default to 1 when 0. On a value slot
	// MaxRepeat is the most values one element holds; Generate draws one.
	MinRepeat, MaxRepeat int

	Children []*Node
}

// Schema is a schema tree with derived probabilities.
type Schema struct {
	Root *Node
}

// ForestRootName marks a synthetic root node grouping several record types
// (e.g. DBLP's article/inproceedings/book records). The synthetic root
// never appears in documents; each document is rooted at one of its
// children.
const ForestRootName = "\x00forest"

// NewForest builds a schema over several record types. weights[i] is the
// fraction of records of type roots[i] (used as its PCond, and by Generate
// to pick a type); pass nil for uniform.
func NewForest(roots []*Node, weights []float64) (*Schema, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("schema: empty forest")
	}
	if weights != nil && len(weights) != len(roots) {
		return nil, fmt.Errorf("schema: %d weights for %d roots", len(weights), len(roots))
	}
	for i, r := range roots {
		if weights == nil {
			r.PCond = 1 / float64(len(roots))
		} else {
			r.PCond = weights[i]
		}
	}
	return New(&Node{Name: ForestRootName, PCond: 1, Children: roots})
}

// IsForest reports whether the schema groups several record types.
func (s *Schema) IsForest() bool {
	return s.Root != nil && s.Root.Name == ForestRootName
}

// New builds a schema around root and computes root probabilities.
func New(root *Node) (*Schema, error) {
	s := &Schema{Root: root}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.ComputeRootProbabilities()
	return s, nil
}

// MustNew is New that panics on error; for fixtures built from literal
// trees known valid at compile time. The panic marks a broken fixture —
// runtime schema construction must use New, which returns the error; the
// public xseq API also runs behind a panic-recovery guard.
func MustNew(root *Node) *Schema {
	s, err := New(root)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural sanity: probabilities within [0,1], names on
// element nodes, positive value ranges, repeat bounds ordered.
func (s *Schema) Validate() error {
	if s.Root == nil {
		return fmt.Errorf("schema: nil root")
	}
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if n.PCond < 0 || n.PCond > 1 {
			return fmt.Errorf("schema: node %q has p(C|parent)=%v outside [0,1]", n.Name, n.PCond)
		}
		if !n.IsValue && n.Name == "" {
			return fmt.Errorf("schema: unnamed element node at depth %d", depth)
		}
		if n.IsValue {
			if len(n.Children) > 0 {
				return fmt.Errorf("schema: value slot %q has children", n.Name)
			}
			if n.ValueRange < 0 {
				return fmt.Errorf("schema: value slot under %q has negative range", n.Name)
			}
		}
		if n.MinRepeat < 0 || n.MaxRepeat < 0 ||
			(n.MaxRepeat > 0 && n.minRepeat() > n.maxRepeat()) {
			return fmt.Errorf("schema: node %q repeat bounds [%d,%d] invalid", n.Name, n.MinRepeat, n.MaxRepeat)
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s.Root, 0)
}

func (n *Node) minRepeat() int {
	if n.MinRepeat <= 0 {
		return 1
	}
	return n.MinRepeat
}

func (n *Node) maxRepeat() int {
	if n.MaxRepeat <= 0 {
		return 1
	}
	return n.MaxRepeat
}

// EffectiveWeight returns w(C), defaulting to 1.
func (n *Node) EffectiveWeight() float64 {
	if n.Weight <= 0 {
		return 1
	}
	return n.Weight
}

// EffectiveValueRange returns the number of distinct values of a value slot,
// defaulting to the explicit vocabulary size, then to 1.
func (n *Node) EffectiveValueRange() int {
	if n.ValueRange > 0 {
		return n.ValueRange
	}
	if len(n.Values) > 0 {
		return len(n.Values)
	}
	return 1
}

// ComputeRootProbabilities derives p(C|root) for every node:
// p(C|root) = p(C|parent) × p(parent|root), with the root at its own PCond
// (normally 1). This is the computation illustrated by Figures 12 and 13.
func (s *Schema) ComputeRootProbabilities() {
	if s.Root == nil {
		return
	}
	if s.Root.PCond == 0 {
		s.Root.PCond = 1
	}
	var walk func(n *Node, parentPRoot float64)
	walk = func(n *Node, parentPRoot float64) {
		n.PRoot = n.PCond * parentPRoot
		for _, c := range n.Children {
			walk(c, n.PRoot)
		}
	}
	walk(s.Root, 1)
}

// HasIdenticalSiblings reports whether any schema node can instantiate more
// than one identical sibling copy.
func (s *Schema) HasIdenticalSiblings() bool {
	found := false
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.maxRepeat() > 1 {
			found = true
			return
		}
		for _, c := range n.Children {
			walk(c)
			if found {
				return
			}
		}
	}
	walk(s.Root)
	return found
}

// NumNodes reports the number of schema nodes.
func (s *Schema) NumNodes() int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		count++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.Root)
	return count
}

// FindByNamePath locates the schema node for a sequence of element names
// starting at a record root ([]string{"P","R","L"}); nil if absent. For
// forest schemas names[0] selects the record type.
func (s *Schema) FindByNamePath(names []string) *Node {
	if s.Root == nil || len(names) == 0 {
		return nil
	}
	var cur *Node
	if s.IsForest() {
		for _, c := range s.Root.Children {
			if !c.IsValue && c.Name == names[0] {
				cur = c
				break
			}
		}
	} else if s.Root.Name == names[0] {
		cur = s.Root
	}
	if cur == nil {
		return nil
	}
	for _, name := range names[1:] {
		var next *Node
		for _, c := range cur.Children {
			if !c.IsValue && c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// ValueSlot returns n's value-slot child, or nil.
func (n *Node) ValueSlot() *Node {
	for _, c := range n.Children {
		if c.IsValue {
			return c
		}
	}
	return nil
}

// String renders the schema as an annotated DTD-like outline, one node per
// line with its probabilities, repeats and weights — the artifact Section 5
// reasons about (Figures 12/13):
//
//	P                          p(C|parent)=1.000 p(C|root)=1.000
//	  #value range=1000        p(C|parent)=0.001 p(C|root)=0.001
//	  R                        p(C|parent)=0.900 p(C|root)=0.900
//	  ...
func (s *Schema) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		name := n.Name
		if n.IsValue {
			name = fmt.Sprintf("#value range=%d", n.EffectiveValueRange())
			if n.ZipfS > 1 {
				name += fmt.Sprintf(" zipf=%.2f", n.ZipfS)
			}
		} else if name == ForestRootName {
			name = "#forest"
		}
		fmt.Fprintf(&b, "%s%-*s p(C|parent)=%.3f p(C|root)=%.3f",
			indent, 28-len(indent), name, n.PCond, n.PRoot)
		if n.maxRepeat() > 1 {
			fmt.Fprintf(&b, " repeat=%d..%d", n.minRepeat(), n.maxRepeat())
		}
		if w := n.EffectiveWeight(); w != 1 {
			fmt.Fprintf(&b, " w=%g", w)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, indent+"  ")
		}
	}
	if s.Root != nil {
		walk(s.Root, "")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Priority model: p'(C|root) over interned paths
// ---------------------------------------------------------------------------

// UnknownDecay is the factor applied per step for paths that leave the
// schema (e.g. unseen elements): each unknown step multiplies the parent's
// priority by this, keeping priorities positive and roughly depth-ordered.
const UnknownDecay = 1e-4

// Model maps interned PathIDs to p'(C|root) priorities for the g_best
// strategy, and to whether they block: whether the schema node a path
// resolves to may repeat (MaxRepeat > 1). It memoizes per PathID and
// resolves paths against the schema by element names; value designators
// (and a text value's first character) resolve to the parent element's
// value slot, with the per-value probability PRoot·w/ValueRange.
//
// Model is safe for concurrent use: the memoization caches are guarded, so
// concurrent queries can prioritize paths freely. Mutating the underlying
// Schema (weights) after Models exist is not synchronized — rebuild the
// Model instead.
type Model struct {
	schema *Schema
	enc    *pathenc.Encoder
	mu     sync.Mutex
	cache  map[pathenc.PathID]rank
	nodes  map[pathenc.PathID]*Node // element paths -> schema node
}

// rank is a path's memoized priority and blocking.
type rank struct {
	prio   float64
	blocks bool
}

// NewModel builds a priority model binding schema probabilities to enc's
// path table. Paths interned after the call are still resolvable (resolution
// is lazy).
func NewModel(s *Schema, enc *pathenc.Encoder) *Model {
	return &Model{
		schema: s,
		enc:    enc,
		cache:  map[pathenc.PathID]rank{pathenc.EmptyPath: {prio: 1}},
		nodes:  map[pathenc.PathID]*Node{},
	}
}

// Schema returns the model's underlying schema.
func (m *Model) Schema() *Schema { return m.schema }

// Priority returns p'(p|root) for an interned path. Unknown paths decay by
// UnknownDecay per unknown step.
func (m *Model) Priority(p pathenc.PathID) float64 {
	prio, _ := m.Rank(p)
	return prio
}

// Rank returns Priority(p) and whether p blocks, in one lookup.
func (m *Model) Rank(p pathenc.PathID) (prio float64, blocks bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.rankLocked(p)
	return r.prio, r.blocks
}

func (m *Model) rankLocked(p pathenc.PathID) rank {
	if r, ok := m.cache[p]; ok {
		return r
	}
	parent := m.enc.Parent(p)
	if parent == pathenc.InvalidPath {
		return rank{}
	}
	parentPr := m.rankLocked(parent).prio
	sym := m.enc.LastSymbol(p)
	var sn *Node
	switch m.enc.SymbolKind(sym) {
	case pathenc.KindElement:
		sn = m.resolveElement(parent, p, m.enc.SymbolName(sym))
	case pathenc.KindValue, pathenc.KindChar:
		// The parent path is the owning element; its value slot carries the
		// slot probability, divided by the value range for one value.
		if en := m.nodeFor(parent); en != nil {
			sn = en.ValueSlot()
		}
	}
	// Paths off the schema decay; wildcards and unknown kinds never occur
	// in data sequences.
	r := rank{prio: parentPr * UnknownDecay}
	if sn != nil {
		r = rank{prio: sn.PRoot * sn.EffectiveWeight(), blocks: sn.maxRepeat() > 1}
		if sn.IsValue {
			r.prio /= float64(sn.EffectiveValueRange())
		}
	}
	if r.prio <= 0 {
		r.prio = math.SmallestNonzeroFloat64
	}
	m.cache[p] = r
	return r
}

func (m *Model) nodeFor(p pathenc.PathID) *Node {
	if p == pathenc.EmptyPath {
		return nil
	}
	if n, ok := m.nodes[p]; ok {
		return n
	}
	parent := m.enc.Parent(p)
	sym := m.enc.LastSymbol(p)
	if m.enc.SymbolKind(sym) != pathenc.KindElement {
		return nil
	}
	return m.resolveElement(parent, p, m.enc.SymbolName(sym))
}

func (m *Model) resolveElement(parent, p pathenc.PathID, name string) *Node {
	if n, ok := m.nodes[p]; ok {
		return n
	}
	var sn *Node
	if parent == pathenc.EmptyPath {
		if m.schema.IsForest() {
			for _, c := range m.schema.Root.Children {
				if !c.IsValue && c.Name == name {
					sn = c
					break
				}
			}
		} else if m.schema.Root != nil && m.schema.Root.Name == name {
			sn = m.schema.Root
		}
	} else if pn := m.nodeFor(parent); pn != nil {
		for _, c := range pn.Children {
			if !c.IsValue && c.Name == name {
				sn = c
				break
			}
		}
	}
	m.nodes[p] = sn // cache misses too
	return sn
}

// SetWeightByNamePath sets w(C) for the schema node at the given name path
// and invalidates the model-independent caches of any Model built later.
// Existing Models must be rebuilt to observe the change.
func (s *Schema) SetWeightByNamePath(names []string, w float64) error {
	n := s.FindByNamePath(names)
	if n == nil {
		return fmt.Errorf("schema: no node at path %v", names)
	}
	n.Weight = w
	return nil
}

// ---------------------------------------------------------------------------
// Document generation
// ---------------------------------------------------------------------------

// Generate instantiates one document tree from the schema using rng:
// each child exists with probability p(C|parent); existing repeatable
// children instantiate uniform [MinRepeat,MaxRepeat] identical sibling
// copies; value slots draw a value (Zipf-skewed when ZipfS > 1). For a
// forest schema the record type is drawn by the roots' weights.
func (s *Schema) Generate(rng *rand.Rand) *xmltree.Node {
	root := s.Root
	if s.IsForest() {
		r := rng.Float64()
		cum := 0.0
		for _, c := range root.Children {
			cum += c.PCond
			if r < cum {
				return s.generateNode(c, rng)
			}
		}
		return s.generateNode(root.Children[len(root.Children)-1], rng)
	}
	return s.generateNode(root, rng)
}

func (s *Schema) generateNode(n *Node, rng *rand.Rand) *xmltree.Node {
	out := xmltree.NewElem(n.Name)
	for _, c := range n.Children {
		if rng.Float64() >= c.PCond {
			continue
		}
		if c.IsValue {
			out.Children = append(out.Children, xmltree.NewValue(c.DrawValue(rng)))
			continue
		}
		copies := 1
		if c.maxRepeat() > c.minRepeat() {
			copies = c.minRepeat() + rng.Intn(c.maxRepeat()-c.minRepeat()+1)
		} else {
			copies = c.minRepeat()
		}
		for k := 0; k < copies; k++ {
			out.Children = append(out.Children, s.generateNode(c, rng))
		}
	}
	return out
}

// DrawValue draws one value from the slot's vocabulary.
func (n *Node) DrawValue(rng *rand.Rand) string {
	r := n.EffectiveValueRange()
	var idx int
	if n.ZipfS > 1 && r > 1 {
		z := rand.NewZipf(rng, n.ZipfS, 1, uint64(r-1))
		idx = int(z.Uint64())
	} else {
		idx = rng.Intn(r)
	}
	if idx < len(n.Values) {
		return n.Values[idx]
	}
	return fmt.Sprintf("%s_%d", n.Name, idx)
}

// ---------------------------------------------------------------------------
// Schema inference by sampling (Section 5.2: "approximate it by data
// sampling")
// ---------------------------------------------------------------------------

// Infer builds a schema from a document sample. For every distinct element
// name path it estimates
//
//	p(C|parent) = (#parent instances with ≥1 C child) / (#parent instances)
//
// and records the observed maximum sibling multiplicity as MaxRepeat. Value
// slots get the observed distinct-value count as ValueRange, and the most
// values one instance holds as MaxRepeat when that is above 1 (mixed
// content). A sample mixing several record root names infers one schema
// per type, grouped under a forest root weighted by the types' sample
// frequencies.
func Infer(docs []*xmltree.Node) (*Schema, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("schema: cannot infer from empty sample")
	}
	groups := map[string][]*xmltree.Node{}
	var order []string
	for _, d := range docs {
		if _, ok := groups[d.Name]; !ok {
			order = append(order, d.Name)
		}
		groups[d.Name] = append(groups[d.Name], d)
	}
	if len(groups) > 1 {
		roots := make([]*Node, 0, len(order))
		weights := make([]float64, 0, len(order))
		for _, name := range order {
			sub, err := inferSingle(groups[name])
			if err != nil {
				return nil, err
			}
			roots = append(roots, sub.Root)
			weights = append(weights, float64(len(groups[name]))/float64(len(docs)))
		}
		return NewForest(roots, weights)
	}
	return inferSingle(docs)
}

func inferSingle(docs []*xmltree.Node) (*Schema, error) {
	rootName := docs[0].Name
	type stat struct {
		instances   int            // occurrences of this schema node
		parentsWith map[string]int // child name -> #instances having >=1 such child
		valueWith   int            // #instances having a value child
		maxValues   int            // most value children under one instance
		values      map[string]int // distinct values observed
		maxRepeat   map[string]int // child name -> max multiplicity under one parent
	}
	stats := map[string]*stat{} // keyed by name path "a/b/c"
	getStat := func(key string) *stat {
		st, ok := stats[key]
		if !ok {
			st = &stat{parentsWith: map[string]int{}, values: map[string]int{}, maxRepeat: map[string]int{}}
			stats[key] = st
		}
		return st
	}

	var walk func(n *xmltree.Node, key string)
	walk = func(n *xmltree.Node, key string) {
		st := getStat(key)
		st.instances++
		childCount := map[string]int{}
		values := 0
		for _, c := range n.Children {
			if c.IsValue {
				values++
				st.values[c.Value]++
				continue
			}
			childCount[c.Name]++
			walk(c, key+"/"+c.Name)
		}
		if values > 0 {
			st.valueWith++
		}
		st.maxValues = max(st.maxValues, values)
		for name, cnt := range childCount {
			st.parentsWith[name]++
			if cnt > st.maxRepeat[name] {
				st.maxRepeat[name] = cnt
			}
		}
	}
	for _, d := range docs {
		if d.Name != rootName {
			return nil, fmt.Errorf("schema: sample mixes root elements %q and %q", rootName, d.Name)
		}
		walk(d, d.Name)
	}

	var build func(name, key string, pcond float64, minRep, maxRep int) *Node
	build = func(name, key string, pcond float64, minRep, maxRep int) *Node {
		st := stats[key]
		n := &Node{Name: name, PCond: pcond, MinRepeat: minRep, MaxRepeat: maxRep}
		if st == nil {
			return n
		}
		if st.valueWith > 0 {
			slot := &Node{
				IsValue:    true,
				PCond:      float64(st.valueWith) / float64(st.instances),
				ValueRange: len(st.values),
				Values:     sortedKeys(st.values),
			}
			if st.maxValues > 1 { // mixed content
				slot.MaxRepeat = st.maxValues
			}
			n.Children = append(n.Children, slot)
		}
		names := sortedKeys(st.parentsWith)
		for _, cn := range names {
			cp := float64(st.parentsWith[cn]) / float64(st.instances)
			mr := st.maxRepeat[cn]
			if mr < 1 {
				mr = 1
			}
			n.Children = append(n.Children, build(cn, key+"/"+cn, cp, 1, mr))
		}
		return n
	}
	root := build(rootName, rootName, 1, 1, 1)
	return New(root)
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Paper fixture
// ---------------------------------------------------------------------------

// Figure12 returns the schema of Figures 12/13: P with a value slot v1
// (p=0.001) and child R (p=0.9); R with U (p=0.8) and L (p=0.4); U with M
// (p=0.8) carrying value slot v2 (p=0.001); L carrying value slot v3
// (p=0.1). Root probabilities follow Figure 13, e.g.
// p(L|root) = 0.4 × 0.9 = 0.36.
func Figure12() *Schema {
	return MustNew(&Node{
		Name:  "P",
		PCond: 1,
		Children: []*Node{
			{IsValue: true, PCond: 0.001, ValueRange: 1000},
			{Name: "R", PCond: 0.9, Children: []*Node{
				{Name: "U", PCond: 0.8, Children: []*Node{
					{Name: "M", PCond: 0.8, Children: []*Node{
						{IsValue: true, PCond: 0.001, ValueRange: 1000},
					}},
				}},
				{Name: "L", PCond: 0.4, Children: []*Node{
					{IsValue: true, PCond: 0.1, ValueRange: 55},
				}},
			}},
		},
	})
}
