// Package xmltree provides the tree model of XML documents and records used
// throughout the library: parsing real XML (via encoding/xml) into label
// trees, serializing them back, structural utilities, and a ground-truth
// unordered tree-pattern embedding checker against which all sequence-based
// query answers are validated.
//
// Following the paper's data model (Figure 1), an XML document is a tree of
// labeled nodes. Element and attribute names are interior labels; attribute
// values and text content become value leaf nodes hanging off their element.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one node of a document tree. Interior nodes carry an element or
// attribute Name; value leaves have IsValue set and carry the text in Value.
type Node struct {
	Name     string
	Value    string
	IsValue  bool
	Children []*Node
}

// Document is an indexable record: a tree plus its identifier.
type Document struct {
	ID   int32
	Root *Node
}

// NewElem builds an interior node with the given children.
func NewElem(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// NewValue builds a value leaf.
func NewValue(v string) *Node {
	return &Node{Value: v, IsValue: true}
}

// Label renders the node's label for debugging: the name for elements, the
// quoted text for value leaves.
func (n *Node) Label() string {
	if n.IsValue {
		return fmt.Sprintf("%q", n.Value)
	}
	return n.Name
}

// Size reports the number of nodes in the subtree rooted at n (elements,
// attributes and values all count, matching the paper's node counts).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Height reports the maximum root-to-leaf depth of the subtree (a single
// node has height 1).
func (n *Node) Height() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if h := c.Height(); h > max {
			max = h
		}
	}
	return max + 1
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Name: n.Name, Value: n.Value, IsValue: n.IsValue}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Walk visits every node of the subtree in depth-first pre-order. If fn
// returns false the node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Equal reports ordered structural equality.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Value != b.Value || a.IsValue != b.IsValue ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// canonKey returns a canonical serialization of the subtree that is invariant
// under sibling reordering, so Isomorphic can compare unordered trees.
func canonKey(n *Node) string {
	if n == nil {
		return ""
	}
	var label string
	if n.IsValue {
		label = "v\x00" + n.Value
	} else {
		label = "e\x00" + n.Name
	}
	if len(n.Children) == 0 {
		return label
	}
	keys := make([]string, len(n.Children))
	for i, c := range n.Children {
		keys[i] = canonKey(c)
	}
	sort.Strings(keys)
	return label + "(" + strings.Join(keys, ",") + ")"
}

// Isomorphic reports whether a and b are the same tree up to reordering of
// siblings — the tree isomorphism of Section 3.2 (Figure 5).
func Isomorphic(a, b *Node) bool {
	return canonKey(a) == canonKey(b)
}

// SortCanonical reorders every sibling list of the subtree into canonical
// (canonKey) order, in place. Two isomorphic trees become Equal after
// SortCanonical.
func SortCanonical(n *Node) {
	if n == nil {
		return
	}
	for _, c := range n.Children {
		SortCanonical(c)
	}
	sort.SliceStable(n.Children, func(i, j int) bool {
		return canonKey(n.Children[i]) < canonKey(n.Children[j])
	})
}

// Embeds reports whether pattern is a sub-structure of data in the paper's
// sense (Figure 2): an injective mapping m of pattern nodes to data nodes
// with equal labels such that m(parent(x)) = parent(m(x)), and distinct
// sibling pattern nodes map to distinct data children. Sibling order is
// irrelevant. A nil pattern embeds trivially.
//
// This is the ground truth a structure match must agree with; the
// sequence-based engines are tested against it.
func Embeds(data, pattern *Node) bool {
	if pattern == nil {
		return true
	}
	if data == nil {
		return false
	}
	// The pattern root may match any node of the data tree.
	found := false
	data.Walk(func(d *Node) bool {
		if found {
			return false
		}
		if embedsAt(d, pattern) {
			found = true
			return false
		}
		return true
	})
	return found
}

// EmbedsAtRoot is Embeds restricted to mapping the pattern root onto the
// data root (document-rooted patterns).
func EmbedsAtRoot(data, pattern *Node) bool {
	if pattern == nil {
		return true
	}
	if data == nil {
		return false
	}
	return embedsAt(data, pattern)
}

func labelsMatch(d, p *Node) bool {
	if p.IsValue != d.IsValue {
		return false
	}
	if p.IsValue {
		return p.Value == d.Value
	}
	return p.Name == d.Name
}

// embedsAt checks pattern embedding with the pattern root pinned to d.
func embedsAt(d, p *Node) bool {
	if !labelsMatch(d, p) {
		return false
	}
	if len(p.Children) == 0 {
		return true
	}
	if len(p.Children) > len(d.Children) {
		return false
	}
	// Injective assignment of pattern children to data children:
	// backtracking bipartite matching. Fanouts are small in XML records,
	// so the O(k!) worst case is irrelevant in practice; candidates are
	// pre-filtered by recursive embedding.
	cand := make([][]int, len(p.Children))
	for i, pc := range p.Children {
		for j, dc := range d.Children {
			if embedsAt(dc, pc) {
				cand[i] = append(cand[i], j)
			}
		}
		if len(cand[i]) == 0 {
			return false
		}
	}
	// Order pattern children by fewest candidates first (fail fast).
	order := make([]int, len(p.Children))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(cand[order[a]]) < len(cand[order[b]]) })

	used := make([]bool, len(d.Children))
	var assign func(k int) bool
	assign = func(k int) bool {
		if k == len(order) {
			return true
		}
		for _, j := range cand[order[k]] {
			if used[j] {
				continue
			}
			used[j] = true
			if assign(k + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return assign(0)
}

// ---------------------------------------------------------------------------
// XML parsing and serialization
// ---------------------------------------------------------------------------

// Default resource limits applied by Parse when the corresponding
// ParseOptions field is zero. They are generous for benchmark corpora while
// stopping hostile inputs (deep-nesting bombs, unbounded streams) at the
// ingestion boundary.
const (
	// DefaultMaxDepth bounds element nesting depth.
	DefaultMaxDepth = 1024
	// DefaultMaxNodes bounds the number of tree nodes one document may
	// produce (elements, attributes and values all count).
	DefaultMaxNodes = 16 << 20 // ~16.7M nodes
	// DefaultMaxInputBytes bounds how many input bytes Parse will consume.
	DefaultMaxInputBytes = 256 << 20 // 256 MiB
)

// LimitError reports that an input exceeded a parse resource limit. It is
// returned (wrapped) by Parse; use errors.As to detect it.
type LimitError struct {
	// Kind names the exceeded limit: "depth", "nodes", or "bytes".
	Kind string
	// Limit is the configured bound that was exceeded.
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("xmltree: input exceeds %s limit (%d)", e.Kind, e.Limit)
}

// ParseOptions controls XML-to-tree conversion.
type ParseOptions struct {
	// KeepWhitespaceText keeps whitespace-only character data as value
	// leaves. Default (false) drops them, which is what every XML index
	// benchmark does.
	KeepWhitespaceText bool

	// MaxDepth bounds element nesting depth (0: DefaultMaxDepth,
	// -1: unlimited). Exceeding it yields a *LimitError.
	MaxDepth int
	// MaxNodes bounds the total number of nodes the document may produce
	// (0: DefaultMaxNodes, -1: unlimited). Exceeding it yields a
	// *LimitError.
	MaxNodes int
	// MaxInputBytes bounds the bytes read from the input
	// (0: DefaultMaxInputBytes, -1: unlimited). Exceeding it yields a
	// *LimitError.
	MaxInputBytes int64
}

// effective resolves the 0-default / -1-unlimited convention. Unlimited is
// represented as the maximum value of the type.
func (o ParseOptions) effective() (maxDepth, maxNodes int, maxBytes int64) {
	maxDepth, maxNodes, maxBytes = o.MaxDepth, o.MaxNodes, o.MaxInputBytes
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	} else if maxDepth < 0 {
		maxDepth = int(^uint(0) >> 1)
	}
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	} else if maxNodes < 0 {
		maxNodes = int(^uint(0) >> 1)
	}
	if maxBytes == 0 {
		maxBytes = DefaultMaxInputBytes
	} else if maxBytes < 0 {
		maxBytes = int64(^uint64(0) >> 1)
	}
	return maxDepth, maxNodes, maxBytes
}

// limitedReader returns *LimitError once more than max bytes have been read.
// An input of exactly max bytes still parses: at the cap, EOF passes through
// and only an actual extra byte trips the limit.
type limitedReader struct {
	r   io.Reader
	n   int64 // bytes remaining before the cap
	max int64
	err error
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.n <= 0 {
		var probe [1]byte
		n, err := l.r.Read(probe[:])
		if n > 0 {
			l.err = &LimitError{Kind: "bytes", Limit: l.max}
			return 0, l.err
		}
		return 0, err
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// Parse reads one XML document from r and converts it to a tree:
//   - elements become interior nodes named by their local tag name;
//   - attributes become child nodes named by the attribute name, each with a
//     single value leaf carrying the attribute value;
//   - character data becomes value leaves under the enclosing element.
func Parse(r io.Reader, opts ParseOptions) (*Node, error) {
	maxDepth, maxNodes, maxBytes := opts.effective()
	lr := &limitedReader{r: r, n: maxBytes, max: maxBytes}
	dec := xml.NewDecoder(lr)
	var stack []*Node
	var root *Node
	nodes := 0
	addNodes := func(k int) error {
		nodes += k
		if nodes > maxNodes {
			return &LimitError{Kind: "nodes", Limit: int64(maxNodes)}
		}
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= maxDepth {
				return nil, fmt.Errorf("xmltree: parse: %w", &LimitError{Kind: "depth", Limit: int64(maxDepth)})
			}
			n := NewElem(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Children = append(n.Children, NewElem(a.Name.Local, NewValue(a.Value)))
			}
			// The element plus, per attribute, an attribute node and its
			// value leaf.
			if err := addNodes(1 + 2*len(n.Children)); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if !opts.KeepWhitespaceText && strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				continue
			}
			if err := addNodes(1); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, NewValue(strings.TrimSpace(text)))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed elements")
	}
	return root, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s), ParseOptions{})
}

// MustParse is ParseString that panics on error; for tests and fixtures
// whose inputs are compile-time string literals. The panic is intentional
// (it signals a broken fixture, not a runtime condition): library and
// application code must use Parse/ParseString, which return the error. The
// public xseq API additionally wraps calls in a panic-recovery guard, so an
// escaped panic surfaces to API callers as an error rather than a crash.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// WriteXML serializes the tree as XML. Value leaves are emitted as character
// data; element children named like attributes are emitted as elements (the
// attribute/element distinction is not preserved, which is fine for an index
// benchmark corpus).
func WriteXML(w io.Writer, n *Node) error {
	return writeXML(w, n, 0)
}

func writeXML(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	if n.IsValue {
		_, err := fmt.Fprintf(w, "%s%s\n", indent, escapeText(n.Value))
		return err
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s/>\n", indent, n.Name)
		return err
	}
	// Single value child collapses onto one line.
	if len(n.Children) == 1 && n.Children[0].IsValue {
		_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Name, escapeText(n.Children[0].Value), n.Name)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s>\n", indent, n.Name); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeXML(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Name)
	return err
}

func escapeText(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

// String renders the subtree in a compact single-line form for debugging:
// P(R(L("boston")),D).
func (n *Node) String() string {
	var b strings.Builder
	writeCompact(&b, n)
	return b.String()
}

func writeCompact(b *strings.Builder, n *Node) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	b.WriteString(n.Label())
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			writeCompact(b, c)
		}
		b.WriteByte(')')
	}
}

// ---------------------------------------------------------------------------
// Paper fixtures
// ---------------------------------------------------------------------------

// Figure1 returns the sample project-hierarchy document of Figure 1.
func Figure1() *Node {
	return NewElem("P",
		NewValue("xml"),
		NewElem("R",
			NewElem("M", NewValue("tom")),
			NewElem("L", NewValue("newyork")),
		),
		NewElem("D",
			NewElem("M", NewValue("johnson")),
			NewElem("U",
				NewElem("M", NewValue("mary")),
				NewElem("N", NewValue("GUI")),
			),
			NewElem("U",
				NewElem("N", NewValue("engine")),
			),
			NewElem("L", NewValue("boston")),
		),
	)
}

// Figure2a returns the tree of Figure 2(a): P with children R, D(L), D(M).
func Figure2a() *Node {
	return NewElem("P",
		NewElem("R"),
		NewElem("D", NewElem("L")),
		NewElem("D", NewElem("M")),
	)
}

// Figure2b returns Figure 2(b): P with children D(L), D(M) — a
// sub-structure of Figure 2(a).
func Figure2b() *Node {
	return NewElem("P",
		NewElem("D", NewElem("L")),
		NewElem("D", NewElem("M")),
	)
}

// Figure2c returns Figure 2(c): P with a single D over both L and M — NOT a
// sub-structure of Figure 2(a); the paper's false-alarm example.
func Figure2c() *Node {
	return NewElem("P",
		NewElem("D", NewElem("L"), NewElem("M")),
	)
}

// Figure3a returns Figure 3(a): P with value xml, R(L(boston)), D(L(newyork)).
func Figure3a() *Node {
	return NewElem("P",
		NewValue("xml"),
		NewElem("R", NewElem("L", NewValue("boston"))),
		NewElem("D", NewElem("L", NewValue("newyork"))),
	)
}

// Figure3b returns Figure 3(b): P with value xml and two identical D
// siblings, the first with L(boston), the second with M(johnson).
func Figure3b() *Node {
	return NewElem("P",
		NewValue("xml"),
		NewElem("D", NewElem("L", NewValue("boston"))),
		NewElem("D", NewElem("M", NewValue("johnson"))),
	)
}

// Figure3c returns Figure 3(c): P with value xml, an empty D, and a D with
// both L(boston) and M(johnson). Figures 3(b) and 3(c) have the same
// multi-set of path-encoded nodes, which is why sequencing must supplement
// set representation.
func Figure3c() *Node {
	return NewElem("P",
		NewValue("xml"),
		NewElem("D"),
		NewElem("D", NewElem("L", NewValue("boston")), NewElem("M", NewValue("johnson"))),
	)
}

// Figure4D returns the data tree of Figure 4(a): P with two L children,
// L(S) and L(B).
func Figure4D() *Node {
	return NewElem("P",
		NewElem("L", NewElem("S")),
		NewElem("L", NewElem("B")),
	)
}

// Figure4Q returns the query tree of Figure 4(b): P with one L over both S
// and B. Its sequence is a subsequence of Figure4D's, yet it is not embedded
// in Figure4D — the canonical false alarm.
func Figure4Q() *Node {
	return NewElem("P",
		NewElem("L", NewElem("S"), NewElem("B")),
	)
}

// Figure5a and Figure5b are the isomorphic pair of Figure 5: the same
// structure with identical L siblings swapped, the false-dismissal example.
func Figure5a() *Node {
	return NewElem("P",
		NewElem("L", NewElem("S")),
		NewElem("L", NewElem("B")),
	)
}

// Figure5b returns the sibling-swapped form of Figure5a.
func Figure5b() *Node {
	return NewElem("P",
		NewElem("L", NewElem("B")),
		NewElem("L", NewElem("S")),
	)
}

// Figure11a returns the document of Figure 11(a): P(v1, R(U(M(v2)), L(v3))).
func Figure11a() *Node {
	return NewElem("P",
		NewValue("x1"),
		NewElem("R",
			NewElem("U", NewElem("M", NewValue("x2"))),
			NewElem("L", NewValue("x3")),
		),
	)
}

// Figure11b returns the document of Figure 11(b): same schema, different
// values: P(v5, R(U(M(v6)), L(v3))).
func Figure11b() *Node {
	return NewElem("P",
		NewValue("x5"),
		NewElem("R",
			NewElem("U", NewElem("M", NewValue("x6"))),
			NewElem("L", NewValue("x3")),
		),
	)
}
