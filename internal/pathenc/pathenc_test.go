package pathenc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestElementSymbolInterning(t *testing.T) {
	e := NewEncoder(0)
	p := e.ElementSymbol("Project")
	r := e.ElementSymbol("Research")
	if p == r {
		t.Fatalf("distinct names share a symbol: %d", p)
	}
	if got := e.ElementSymbol("Project"); got != p {
		t.Fatalf("re-interning Project: got %d want %d", got, p)
	}
	if e.SymbolName(p) != "Project" {
		t.Fatalf("SymbolName = %q", e.SymbolName(p))
	}
	if e.SymbolKind(p) != KindElement {
		t.Fatalf("SymbolKind = %v", e.SymbolKind(p))
	}
}

func TestNamespacesDisjoint(t *testing.T) {
	e := NewEncoder(0)
	el := e.ElementSymbol("boston")
	val := e.ValueSymbol("boston")
	chars := e.CharSymbols("b")
	if el == val {
		t.Fatalf("element and value designators for %q collide", "boston")
	}
	if len(chars) != 1 || chars[0] == el {
		t.Fatalf("char designator collides with element designator")
	}
	wc := e.WildcardSymbol()
	if e.SymbolKind(wc) != KindWildcard || e.SymbolName(wc) != "*" {
		t.Fatalf("wildcard symbol broken: kind=%v name=%q", e.SymbolKind(wc), e.SymbolName(wc))
	}
}

func TestValueHashingRange(t *testing.T) {
	e := NewEncoder(55) // e.g. one bucket per US state+territory, as in §5.2
	if e.ValueSpace() != 55 {
		t.Fatalf("ValueSpace = %d", e.ValueSpace())
	}
	for _, v := range []string{"boston", "newyork", "johnson", "", "GUI", "engine"} {
		if b := e.HashValue(v); b < 0 || b >= 55 {
			t.Fatalf("HashValue(%q) = %d out of range", v, b)
		}
	}
	// Deterministic.
	if e.HashValue("boston") != e.HashValue("boston") {
		t.Fatal("HashValue not deterministic")
	}
	// Same bucket -> same symbol (ViST collision semantics).
	s1 := e.ValueSymbol("boston")
	s2 := e.ValueSymbol("boston")
	if s1 != s2 {
		t.Fatalf("same value produced different symbols %d %d", s1, s2)
	}
}

func TestDefaultValueSpace(t *testing.T) {
	if got := NewEncoder(0).ValueSpace(); got != DefaultValueSpace {
		t.Fatalf("default value space = %d want %d", got, DefaultValueSpace)
	}
	if got := NewEncoder(-5).ValueSpace(); got != DefaultValueSpace {
		t.Fatalf("negative value space = %d want %d", got, DefaultValueSpace)
	}
}

func TestCharSymbolsRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	syms := e.CharSymbols("boston")
	if len(syms) != 6 {
		t.Fatalf("len = %d", len(syms))
	}
	got := ""
	for _, s := range syms {
		if e.SymbolKind(s) != KindChar {
			t.Fatalf("kind of %q = %v", e.SymbolName(s), e.SymbolKind(s))
		}
		got += e.SymbolName(s)
	}
	if got != "boston" {
		t.Fatalf("round trip = %q", got)
	}
	// Repeated characters share designators: o appears twice.
	if syms[1] != syms[4] {
		t.Fatalf("repeated char designators differ: %d %d", syms[1], syms[4])
	}
}

// buildFig3a interns the paths of Figure 3(a):
// {P, Pv0, PR, PD, PRL, PDL, PRLv1, PDLv2}.
func buildFig3a(e *Encoder) map[string]PathID {
	P := e.ElementSymbol("P")
	R := e.ElementSymbol("R")
	D := e.ElementSymbol("D")
	L := e.ElementSymbol("L")
	v0 := e.ValueSymbol("xml")
	v1 := e.ValueSymbol("boston")
	v2 := e.ValueSymbol("newyork")

	m := map[string]PathID{}
	m["P"] = e.Extend(EmptyPath, P)
	m["Pv0"] = e.Extend(m["P"], v0)
	m["PR"] = e.Extend(m["P"], R)
	m["PD"] = e.Extend(m["P"], D)
	m["PRL"] = e.Extend(m["PR"], L)
	m["PDL"] = e.Extend(m["PD"], L)
	m["PRLv1"] = e.Extend(m["PRL"], v1)
	m["PDLv2"] = e.Extend(m["PDL"], v2)
	return m
}

func TestPathInterning(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)

	// Same extension -> same id.
	P := e.ElementSymbol("P")
	if got := e.Extend(EmptyPath, P); got != m["P"] {
		t.Fatalf("re-extend P = %d want %d", got, m["P"])
	}
	// PRL and PDL are distinct even though both end in L.
	if m["PRL"] == m["PDL"] {
		t.Fatal("PRL and PDL interned to the same id")
	}
	if e.Parent(m["PRL"]) != m["PR"] {
		t.Fatalf("Parent(PRL) = %v", e.Parent(m["PRL"]))
	}
	if e.LastSymbol(m["PRL"]) != e.ElementSymbol("L") {
		t.Fatal("LastSymbol(PRL) != L")
	}
	if e.Depth(m["PRLv1"]) != 4 || e.Depth(m["P"]) != 1 || e.Depth(EmptyPath) != 0 {
		t.Fatalf("depths wrong: %d %d %d", e.Depth(m["PRLv1"]), e.Depth(m["P"]), e.Depth(EmptyPath))
	}
}

func TestLookupWithoutInterning(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	L := e.ElementSymbol("L")
	if got := e.Lookup(m["PR"], L); got != m["PRL"] {
		t.Fatalf("Lookup(PR, L) = %d want %d", got, m["PRL"])
	}
	M := e.ElementSymbol("M")
	if got := e.Lookup(m["PR"], M); got != InvalidPath {
		t.Fatalf("Lookup(PR, M) = %d want InvalidPath", got)
	}
	if _, ok := e.LookupElementSymbol("Zed"); ok {
		t.Fatal("LookupElementSymbol invented a symbol")
	}
	if _, ok := e.LookupValueSymbol("neverseen-distinct-bucket-?"); ok {
		// May legitimately collide into a seen bucket; only assert when the
		// bucket is genuinely fresh.
		e2 := NewEncoder(1 << 20)
		if _, ok2 := e2.LookupValueSymbol("x"); ok2 {
			t.Fatal("fresh encoder claims to know a value bucket")
		}
	}
}

func TestPrefixRelation(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	cases := []struct {
		a, b   string
		strict bool
		prefix bool
	}{
		{"P", "PRLv1", true, true},
		{"PR", "PRL", true, true},
		{"PD", "PRL", false, false},
		{"PRL", "PRL", false, true},
		{"PRL", "PR", false, false},
		{"PDL", "PRLv1", false, false},
	}
	for _, c := range cases {
		if got := e.IsStrictPrefix(m[c.a], m[c.b]); got != c.strict {
			t.Errorf("IsStrictPrefix(%s,%s) = %v want %v", c.a, c.b, got, c.strict)
		}
		if got := e.IsPrefix(m[c.a], m[c.b]); got != c.prefix {
			t.Errorf("IsPrefix(%s,%s) = %v want %v", c.a, c.b, got, c.prefix)
		}
	}
	if e.IsPrefix(EmptyPath, m["PRLv1"]) != true {
		t.Error("ε should be a prefix of every path")
	}
	if e.IsPrefix(InvalidPath, m["P"]) || e.IsPrefix(m["P"], InvalidPath) {
		t.Error("InvalidPath participates in prefix relation")
	}
}

func TestPathString(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	if got := e.PathString(m["PRL"]); got != "P.R.L" {
		t.Fatalf("PathString = %q", got)
	}
	if got := e.PathString(EmptyPath); got != "ε" {
		t.Fatalf("PathString(ε) = %q", got)
	}
	if got := e.PathString(InvalidPath); got != "<invalid>" {
		t.Fatalf("PathString(invalid) = %q", got)
	}
}

func TestSymbolsDecomposition(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	syms := e.Symbols(m["PRLv1"])
	if len(syms) != 4 {
		t.Fatalf("len(Symbols) = %d", len(syms))
	}
	want := []Symbol{e.ElementSymbol("P"), e.ElementSymbol("R"), e.ElementSymbol("L"), e.ValueSymbol("boston")}
	for i := range want {
		if syms[i] != want[i] {
			t.Fatalf("Symbols[%d] = %d want %d", i, syms[i], want[i])
		}
	}
	if e.Symbols(EmptyPath) != nil {
		t.Fatal("Symbols(ε) should be nil")
	}
}

func TestChildIndex(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	ci := e.BuildChildIndex()

	kids := ci.Children(m["P"])
	if len(kids) != 3 { // Pv0, PR, PD
		t.Fatalf("children of P = %d want 3", len(kids))
	}
	desc := descendantsWalk(ci, m["PR"])
	if len(desc) != 2 { // PRL, PRLv1
		t.Fatalf("descendants of PR = %d want 2", len(desc))
	}
	if got := ci.ElementDescendants(m["PR"]); len(got) != 1 || got[0] != m["PRL"] {
		t.Fatalf("element descendants of PR = %v want [%d]", got, m["PRL"])
	}
	all := descendantsWalk(ci, EmptyPath)
	if len(all) != e.NumPaths()-1 {
		t.Fatalf("descendants of ε = %d want %d", len(all), e.NumPaths()-1)
	}
	if ci.Children(InvalidPath) != nil {
		t.Fatal("Children(InvalidPath) should be nil")
	}
}

func TestChildPathsMatchesChildIndex(t *testing.T) {
	e := NewEncoder(0)
	m := buildFig3a(e)
	ci := e.BuildChildIndex()
	direct := e.ChildPaths(m["P"])
	snap := ci.Children(m["P"])
	if len(direct) != len(snap) {
		t.Fatalf("ChildPaths %d vs ChildIndex %d", len(direct), len(snap))
	}
	seen := map[PathID]bool{}
	for _, p := range direct {
		seen[p] = true
	}
	for _, p := range snap {
		if !seen[p] {
			t.Fatalf("path %d missing from ChildPaths", p)
		}
	}
}

// Property: for random paths built by random extensions, parent/depth/prefix
// invariants hold.
func TestQuickPathInvariants(t *testing.T) {
	e := NewEncoder(0)
	rng := rand.New(rand.NewSource(42))
	syms := make([]Symbol, 12)
	for i := range syms {
		syms[i] = e.ElementSymbol(string(rune('A' + i)))
	}
	// Generate a pool of random paths.
	pool := []PathID{EmptyPath}
	for i := 0; i < 500; i++ {
		parent := pool[rng.Intn(len(pool))]
		if e.Depth(parent) > 8 {
			parent = EmptyPath
		}
		pool = append(pool, e.Extend(parent, syms[rng.Intn(len(syms))]))
	}

	f := func(i, j uint16) bool {
		a := pool[int(i)%len(pool)]
		b := pool[int(j)%len(pool)]
		// depth(parent) == depth(p) - 1
		if a != EmptyPath && e.Depth(e.Parent(a)) != e.Depth(a)-1 {
			return false
		}
		// IsPrefix consistent with symbol decomposition.
		as, bs := e.Symbols(a), e.Symbols(b)
		want := len(as) <= len(bs)
		for k := 0; want && k < len(as); k++ {
			if as[k] != bs[k] {
				want = false
			}
		}
		if e.IsPrefix(a, b) != want {
			return false
		}
		// Strict prefix implies prefix and a != b.
		if e.IsStrictPrefix(a, b) && (!e.IsPrefix(a, b) || a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Extend is injective per (parent, symbol) and re-entrant.
func TestQuickExtendDeterministic(t *testing.T) {
	e := NewEncoder(0)
	f := func(names []uint8) bool {
		p := EmptyPath
		q := EmptyPath
		for _, n := range names {
			s := e.ElementSymbol(string(rune('a' + n%20)))
			p = e.Extend(p, s)
			q = e.Extend(q, s)
			if p != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
