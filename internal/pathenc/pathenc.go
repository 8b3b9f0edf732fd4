// Package pathenc implements the node-encoding layer of constraint-sequence
// XML indexing (Section 2 of Wang & Meng, ICDE 2005).
//
// Every tree node is encoded by the path leading from the root to the node.
// Element and attribute names are mapped to compact designators (Symbol) and
// attribute values are mapped to value designators, either atomically through
// a hash function (the ViST representation) or as a sequence of character
// designators (the Index Fabric representation); both options from Section
// 2.1 are provided.
//
// Paths are interned: a PathID identifies one distinct root-to-node path, and
// the prefix relation (written ⊂ in the paper) as well as parent/last-symbol
// decomposition are O(1) lookups. Interning makes sequences compact ([]PathID)
// and lets the index keep one horizontal path link per PathID.
package pathenc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Symbol is a designator for one element name, attribute name, or value.
// Symbols are dense, starting at 0, in order of first registration.
type Symbol uint32

// Kind distinguishes what a Symbol designates.
type Kind uint8

const (
	// KindElement designates an element or attribute name.
	KindElement Kind = iota
	// KindValue designates an atomic (hashed or literal) attribute value.
	KindValue
	// KindChar designates a single character of a text-sequence value.
	KindChar
	// KindWildcard designates the reserved single-step wildcard '*'.
	KindWildcard
)

// PathID identifies an interned root-to-node path. The zero value EmptyPath
// is the empty path ε (the "path" of the document root's parent).
type PathID int32

// EmptyPath is the empty path ε.
const EmptyPath PathID = 0

// InvalidPath is returned by lookups that find no interned path.
const InvalidPath PathID = -1

type pathKey struct {
	parent PathID
	sym    Symbol
}

// Encoder interns designators and paths for one corpus. An Encoder must be
// shared by everything that exchanges Symbols or PathIDs (documents, queries,
// index). The zero value is not usable; call NewEncoder.
//
// Encoder is not safe for concurrent mutation; build single-threaded or guard
// externally. Read-only use after building is safe from multiple goroutines.
type Encoder struct {
	syms       map[string]Symbol
	symName    []string
	symKind    []Kind
	paths      map[pathKey]PathID
	parent     []PathID
	last       []Symbol
	depth      []int32
	valSpace   int
	textValues bool
}

// DefaultValueSpace is the default range of the value hash function h(·)
// used for atomic values, mirroring the paper's example of a hash function
// "with a range of 1000" for high-cardinality values.
const DefaultValueSpace = 1000

// NewTextEncoder returns an Encoder using the paper's second value
// representation (Section 2.1): a value is a sequence of character
// designators ("boston" -> b,o,s,t,o,n), enabling subsequence/prefix
// matching inside attribute values (Index Fabric style). Empty values fall
// back to one atomic designator so they remain representable.
func NewTextEncoder() *Encoder {
	e := NewEncoder(0)
	e.textValues = true
	return e
}

// TextValues reports whether values encode as character sequences.
func (e *Encoder) TextValues() bool { return e.textValues }

// NewEncoder returns an empty Encoder. valueSpace is the range of the value
// hash function; if valueSpace <= 0, DefaultValueSpace is used. A value space
// of 0 distinct buckets is meaningless, so it is rejected rather than stored.
func NewEncoder(valueSpace int) *Encoder {
	if valueSpace <= 0 {
		valueSpace = DefaultValueSpace
	}
	e := &Encoder{
		syms:     make(map[string]Symbol),
		paths:    make(map[pathKey]PathID),
		parent:   []PathID{InvalidPath},
		last:     []Symbol{0},
		depth:    []int32{0},
		valSpace: valueSpace,
	}
	// Reserve the wildcard symbol so query code can always refer to it.
	e.intern(wildcardKey, "*", KindWildcard)
	return e
}

// internal key prefixes keep the three designator namespaces disjoint: the
// element "L" and the value "L" are different designators.
const (
	elemPrefix  = "e\x00"
	valPrefix   = "v\x00"
	charPrefix  = "c\x00"
	wildcardKey = "w\x00*"
)

func (e *Encoder) intern(key, name string, kind Kind) Symbol {
	if s, ok := e.syms[key]; ok {
		return s
	}
	s := Symbol(len(e.symName))
	e.syms[key] = s
	e.symName = append(e.symName, name)
	e.symKind = append(e.symKind, kind)
	return s
}

// ValueSpace reports the range of the atomic value hash function.
func (e *Encoder) ValueSpace() int { return e.valSpace }

// ElementSymbol interns (or returns) the designator for an element or
// attribute name.
func (e *Encoder) ElementSymbol(name string) Symbol {
	return e.intern(elemPrefix+name, name, KindElement)
}

// LookupElementSymbol returns the designator for name without interning.
// The second result reports whether the name was known.
func (e *Encoder) LookupElementSymbol(name string) (Symbol, bool) {
	s, ok := e.syms[elemPrefix+name]
	return s, ok
}

// ValueSymbol interns the atomic designator for an attribute value. This is
// the paper's first value representation: each value maps to a single
// designator v_i = h(value). Values whose hash buckets collide share a
// designator, exactly as in ViST; exact-match semantics are restored by the
// post-verification helpers in the query layer when required.
func (e *Encoder) ValueSymbol(value string) Symbol {
	bucket := e.HashValue(value)
	var buf [24]byte
	key := appendValueKey(buf[:0], bucket)
	if s, ok := e.syms[string(key)]; ok {
		return s
	}
	return e.intern(string(key), "v"+strconv.Itoa(bucket), KindValue)
}

// LookupValueSymbol returns the designator a value would hash to, without
// interning. The second result reports whether that bucket has been seen.
func (e *Encoder) LookupValueSymbol(value string) (Symbol, bool) {
	var buf [24]byte
	s, ok := e.syms[string(appendValueKey(buf[:0], e.HashValue(value)))]
	return s, ok
}

// appendValueKey renders the interning key of a value bucket into b.
func appendValueKey(b []byte, bucket int) []byte {
	return strconv.AppendInt(append(b, valPrefix...), int64(bucket), 10)
}

// HashValue reports the hash bucket h(value) in [0, ValueSpace): 32-bit
// FNV-1a (hash/fnv's New32a), inlined so that hashing allocates nothing.
func (e *Encoder) HashValue(value string) int {
	h := uint32(2166136261)
	for i := 0; i < len(value); i++ {
		h ^= uint32(value[i])
		h *= 16777619
	}
	return int(h % uint32(e.valSpace))
}

// CharSymbols interns the paper's second value representation: the value as
// a sequence of character designators ("boston" -> b,o,s,t,o,n), which
// permits subsequence matching inside attribute values (Index Fabric style).
func (e *Encoder) CharSymbols(value string) []Symbol {
	out := make([]Symbol, 0, len(value))
	for _, r := range value {
		out = append(out, e.intern(charPrefix+string(r), string(r), KindChar))
	}
	return out
}

// LookupCharSymbols is CharSymbols without interning, for read-only query
// paths (keeping the encoder immutable during concurrent queries). The
// second result is false when any character has never been seen — such a
// value cannot occur in the corpus.
func (e *Encoder) LookupCharSymbols(value string) ([]Symbol, bool) {
	out := make([]Symbol, 0, len(value))
	for _, r := range value {
		s, ok := e.syms[charPrefix+string(r)]
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
	return out, true
}

// WildcardSymbol returns the reserved designator for the single-step
// wildcard '*'.
func (e *Encoder) WildcardSymbol() Symbol { return e.syms[wildcardKey] }

// SymbolName reports the human-readable name of a designator.
func (e *Encoder) SymbolName(s Symbol) string {
	if int(s) >= len(e.symName) {
		return fmt.Sprintf("?sym%d", s)
	}
	return e.symName[s]
}

// SymbolKind reports what a designator designates.
func (e *Encoder) SymbolKind(s Symbol) Kind {
	if int(s) >= len(e.symKind) {
		return KindElement
	}
	return e.symKind[s]
}

// NumSymbols reports how many designators have been interned.
func (e *Encoder) NumSymbols() int { return len(e.symName) }

// Extend interns (or returns) the path parent/sym.
func (e *Encoder) Extend(parent PathID, sym Symbol) PathID {
	k := pathKey{parent, sym}
	if id, ok := e.paths[k]; ok {
		return id
	}
	id := PathID(len(e.parent))
	e.paths[k] = id
	e.parent = append(e.parent, parent)
	e.last = append(e.last, sym)
	e.depth = append(e.depth, e.depth[parent]+1)
	return id
}

// Lookup returns the PathID of parent/sym without interning, or InvalidPath.
func (e *Encoder) Lookup(parent PathID, sym Symbol) PathID {
	if id, ok := e.paths[pathKey{parent, sym}]; ok {
		return id
	}
	return InvalidPath
}

// Parent returns the longest proper prefix of p (EmptyPath's parent is
// InvalidPath).
func (e *Encoder) Parent(p PathID) PathID {
	if p <= EmptyPath || int(p) >= len(e.parent) {
		return InvalidPath
	}
	return e.parent[p]
}

// LastSymbol returns the final designator of p. It must not be called with
// EmptyPath or InvalidPath.
func (e *Encoder) LastSymbol(p PathID) Symbol { return e.last[p] }

// Depth reports the number of designators in p (0 for EmptyPath).
func (e *Encoder) Depth(p PathID) int { return int(e.depth[p]) }

// NumPaths reports how many paths are interned, including EmptyPath.
func (e *Encoder) NumPaths() int { return len(e.parent) }

// IsPrefix reports whether a ⊂ b or a == b, i.e. whether a is a (non-strict)
// prefix of b, by walking b's parent chain. O(depth(b) - depth(a)).
func (e *Encoder) IsPrefix(a, b PathID) bool {
	if a == InvalidPath || b == InvalidPath {
		return false
	}
	for e.depth[b] > e.depth[a] {
		b = e.parent[b]
	}
	return a == b
}

// IsStrictPrefix reports whether a ⊂ b (a is a proper prefix of b).
func (e *Encoder) IsStrictPrefix(a, b PathID) bool {
	return a != b && e.IsPrefix(a, b)
}

// Symbols returns the designators of p from root to leaf.
func (e *Encoder) Symbols(p PathID) []Symbol {
	if p <= EmptyPath || int(p) >= len(e.parent) {
		return nil
	}
	out := make([]Symbol, e.depth[p])
	for i := int(e.depth[p]) - 1; i >= 0; i-- {
		out[i] = e.last[p]
		p = e.parent[p]
	}
	return out
}

// PathString renders p in the paper's notation, e.g. "PDL" becomes
// "P.D.L" (dot-separated to keep multi-character names readable).
func (e *Encoder) PathString(p PathID) string {
	switch p {
	case EmptyPath:
		return "ε"
	case InvalidPath:
		return "<invalid>"
	}
	syms := e.Symbols(p)
	parts := make([]string, len(syms))
	for i, s := range syms {
		parts[i] = e.SymbolName(s)
	}
	return strings.Join(parts, ".")
}

// AllPaths returns every interned PathID except EmptyPath, sorted ascending.
// Wildcard expansion iterates this.
func (e *Encoder) AllPaths() []PathID {
	out := make([]PathID, 0, len(e.parent)-1)
	for i := 1; i < len(e.parent); i++ {
		out = append(out, PathID(i))
	}
	return out
}

// ChildPaths returns the interned extensions of parent, sorted by symbol.
// O(NumPaths) the first call builds no cache; callers that need repeated
// traversal should use ChildIndex.
func (e *Encoder) ChildPaths(parent PathID) []PathID {
	var out []PathID
	for k, id := range e.paths {
		if k.parent == parent {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return e.last[out[i]] < e.last[out[j]] })
	return out
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

// Snapshot is the serializable state of an Encoder (gob-friendly: exported
// fields only). Symbol interning keys are reconstructed from (kind, name).
type Snapshot struct {
	SymNames   []string
	SymKinds   []Kind
	Parents    []PathID
	Lasts      []Symbol
	ValSpace   int
	TextValues bool
}

// Snapshot captures the encoder's state for serialization.
func (e *Encoder) Snapshot() Snapshot {
	return Snapshot{
		SymNames:   append([]string(nil), e.symName...),
		SymKinds:   append([]Kind(nil), e.symKind...),
		Parents:    append([]PathID(nil), e.parent...),
		Lasts:      append([]Symbol(nil), e.last...),
		ValSpace:   e.valSpace,
		TextValues: e.textValues,
	}
}

func keyFor(kind Kind, name string) (string, error) {
	switch kind {
	case KindElement:
		return elemPrefix + name, nil
	case KindValue:
		if len(name) < 2 || name[0] != 'v' {
			return "", fmt.Errorf("pathenc: malformed value designator name %q", name)
		}
		return valPrefix + name[1:], nil
	case KindChar:
		return charPrefix + name, nil
	case KindWildcard:
		return wildcardKey, nil
	default:
		return "", fmt.Errorf("pathenc: unknown symbol kind %d", kind)
	}
}

// FromSnapshot reconstructs an Encoder.
func FromSnapshot(s Snapshot) (*Encoder, error) {
	if len(s.SymNames) != len(s.SymKinds) {
		return nil, fmt.Errorf("pathenc: snapshot symbol tables of lengths %d and %d", len(s.SymNames), len(s.SymKinds))
	}
	if len(s.Parents) != len(s.Lasts) || len(s.Parents) == 0 {
		return nil, fmt.Errorf("pathenc: snapshot path tables of lengths %d and %d", len(s.Parents), len(s.Lasts))
	}
	if s.ValSpace <= 0 {
		return nil, fmt.Errorf("pathenc: snapshot value space %d", s.ValSpace)
	}
	e := &Encoder{
		syms:       make(map[string]Symbol, len(s.SymNames)),
		symName:    append([]string(nil), s.SymNames...),
		symKind:    append([]Kind(nil), s.SymKinds...),
		paths:      make(map[pathKey]PathID, len(s.Parents)),
		parent:     append([]PathID(nil), s.Parents...),
		last:       append([]Symbol(nil), s.Lasts...),
		depth:      make([]int32, len(s.Parents)),
		valSpace:   s.ValSpace,
		textValues: s.TextValues,
	}
	for i, name := range e.symName {
		key, err := keyFor(e.symKind[i], name)
		if err != nil {
			return nil, err
		}
		e.syms[key] = Symbol(i)
	}
	// Entry 0 is EmptyPath; parents must point backwards so depths can be
	// filled in one pass.
	if e.parent[0] != InvalidPath {
		return nil, fmt.Errorf("pathenc: snapshot entry 0 is not the empty path")
	}
	for i := 1; i < len(e.parent); i++ {
		p := e.parent[i]
		if p < 0 || PathID(i) <= p {
			return nil, fmt.Errorf("pathenc: snapshot path %d has forward or invalid parent %d", i, p)
		}
		if int(e.last[i]) >= len(e.symName) {
			return nil, fmt.Errorf("pathenc: snapshot path %d references unknown symbol %d", i, e.last[i])
		}
		e.depth[i] = e.depth[p] + 1
		e.paths[pathKey{p, e.last[i]}] = PathID(i)
	}
	return e, nil
}

// ChildIndex is a frozen, interval-labelled view of the path table — the
// path table is a DataGuide, so it takes the same (n⊢, n⊣) labels as the
// sequence trie (Section 4.1). Each path has a pre-order position pre[p]
// and the position end[p] of its last descendant, so "every path under p"
// is the position range (pre[p], end[p]]. The pre-order visits children
// in descending PathID, and every descendant list the index hands out is
// in that order: it decides which instances survive an instantiation
// limit.
//
// All arrays are flat (CSR): the children of p are kids[kidOff[p]:
// kidOff[p+1]] in ascending PathID; the paths ending in symbol s are
// bySym[symOff[s]:symOff[s+1]] and the paths ending in an element
// designator are elems, both in pre-order, so a name test under p is one
// binary search per end of p's range.
type ChildIndex struct {
	kidOff []int32
	kids   []PathID
	pre    []int32
	end    []int32
	symOff []int32
	bySym  []PathID
	elems  []PathID
}

// BuildChildIndex snapshots the current path table. Paths and symbols
// interned afterwards are not visible.
func (e *Encoder) BuildChildIndex() *ChildIndex {
	n := len(e.parent)
	ci := &ChildIndex{
		kidOff: make([]int32, n+1),
		kids:   make([]PathID, n-1),
		pre:    make([]int32, n),
		end:    make([]int32, n),
		symOff: make([]int32, len(e.symName)+1),
		bySym:  make([]PathID, n-1),
	}
	// Children by counting sort on the parent; ascending PathID falls out.
	for i := 1; i < n; i++ {
		ci.kidOff[e.parent[i]+1]++
	}
	for p := 0; p < n; p++ {
		ci.kidOff[p+1] += ci.kidOff[p]
	}
	next := append([]int32(nil), ci.kidOff[:n]...)
	for i := 1; i < n; i++ {
		p := e.parent[i]
		ci.kids[next[p]] = PathID(i)
		next[p]++
	}
	// Subtree sizes: parents precede their children, so one backward pass.
	size := make([]int32, n)
	for i := n - 1; i > 0; i-- {
		size[e.parent[i]] += size[i] + 1
	}
	// Pre-order: pushing children ascending pops them descending.
	order := make([]PathID, 0, n)
	stack := []PathID{EmptyPath}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ci.pre[p] = int32(len(order))
		ci.end[p] = ci.pre[p] + size[p]
		order = append(order, p)
		stack = append(stack, ci.Children(p)...)
	}
	// Postings in pre-order; EmptyPath (position 0) ends in no designator.
	nElem := 0
	for _, p := range order[1:] {
		s := e.last[p]
		ci.symOff[s+1]++
		if e.symKind[s] == KindElement {
			nElem++
		}
	}
	for s := 1; s < len(ci.symOff); s++ {
		ci.symOff[s] += ci.symOff[s-1]
	}
	next = append(next[:0], ci.symOff...)
	ci.elems = make([]PathID, 0, nElem)
	for _, p := range order[1:] {
		s := e.last[p]
		ci.bySym[next[s]] = p
		next[s]++
		if e.symKind[s] == KindElement {
			ci.elems = append(ci.elems, p)
		}
	}
	return ci
}

// Children returns the interned extensions of p at snapshot time, in
// ascending PathID.
func (ci *ChildIndex) Children(p PathID) []PathID {
	if p < 0 || int(p) >= len(ci.pre) {
		return nil
	}
	return ci.kids[ci.kidOff[p]:ci.kidOff[p+1]]
}

// DescendantsEnding returns the strict descendants of p whose last
// designator is sym, in the index's pre-order. The slice aliases the index
// and must not be modified.
func (ci *ChildIndex) DescendantsEnding(p PathID, sym Symbol) []PathID {
	if int(sym)+1 >= len(ci.symOff) {
		return nil
	}
	return ci.within(p, ci.bySym[ci.symOff[sym]:ci.symOff[sym+1]])
}

// ElementDescendants returns the strict descendants of p whose last
// designator is an element or attribute name — the candidates of a `//*`
// step — in the index's pre-order. The slice aliases the index and must not
// be modified.
func (ci *ChildIndex) ElementDescendants(p PathID) []PathID {
	return ci.within(p, ci.elems)
}

// within clips a pre-ordered posting list to p's descendant range.
func (ci *ChildIndex) within(p PathID, list []PathID) []PathID {
	if p < 0 || int(p) >= len(ci.pre) {
		return nil
	}
	lo, hi := ci.pre[p], ci.end[p]
	i := sort.Search(len(list), func(k int) bool { return ci.pre[list[k]] > lo })
	j := i + sort.Search(len(list)-i, func(k int) bool { return ci.pre[list[i+k]] > hi })
	return list[i:j]
}
