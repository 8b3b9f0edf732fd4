package pathenc

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// descendantsWalk is the reference the interval labels replace: every path
// with p as a strict prefix, in the order of a stack walk that pushes
// children in ascending PathID (so it visits them in descending PathID).
// That order decides which instances survive an instantiation limit, so
// the index must reproduce it element by element.
func descendantsWalk(ci *ChildIndex, p PathID) []PathID {
	var out []PathID
	stack := append([]PathID(nil), ci.Children(p)...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		stack = append(stack, ci.Children(n)...)
	}
	return out
}

// walkEnding filters the walk by a name test: paths ending in sym, or in
// any element designator when wildcard is set.
func walkEnding(e *Encoder, ci *ChildIndex, p PathID, sym Symbol, wildcard bool) []PathID {
	var out []PathID
	for _, c := range descendantsWalk(ci, p) {
		last := e.LastSymbol(c)
		if wildcard && e.SymbolKind(last) == KindElement || !wildcard && last == sym {
			out = append(out, c)
		}
	}
	return out
}

// randomTable interns the paths of a few random documents — elements from
// a small alphabet, value leaves from a small value space — with depth at
// most 8 and fan-out at most 6. Several documents interleave their PathIDs,
// so ascending PathID and pre-order disagree.
func randomTable(rng *rand.Rand) *Encoder {
	e := NewEncoder(1 + rng.Intn(40))
	e.ElementSymbol("unused") // known name on no path
	var grow func(p PathID, depth int)
	grow = func(p PathID, depth int) {
		if depth == 8 {
			return
		}
		for k := rng.Intn(7); k > 0; k-- {
			if rng.Intn(4) == 0 {
				e.Extend(p, e.ValueSymbol(strconv.Itoa(rng.Intn(60))))
				continue
			}
			c := e.Extend(p, e.ElementSymbol(string(rune('a'+rng.Intn(6)))))
			if rng.Intn(depth+2) < 2 {
				grow(c, depth+1)
			}
		}
	}
	for d := 1 + rng.Intn(4); d > 0; d-- {
		grow(EmptyPath, 0)
	}
	return e
}

// checkDescendants compares the indexed candidates of one name test with
// the filtered walk, element by element.
func checkDescendants(t *testing.T, e *Encoder, ci *ChildIndex, p PathID, sym Symbol, wildcard bool) {
	t.Helper()
	var got []PathID
	if wildcard {
		got = ci.ElementDescendants(p)
	} else {
		got = ci.DescendantsEnding(p, sym)
	}
	if want := walkEnding(e, ci, p, sym, wildcard); !slices.Equal(got, want) {
		t.Fatalf("path %d (%s), sym %d wildcard %v: index %v, walk %v", p, e.PathString(p), sym, wildcard, got, want)
	}
}

// TestDescendantIndexMatchesWalk checks every path (EmptyPath included)
// against every name test: each known element name, '*', each hashed value
// bucket, a known name no path ends in, and a designator interned after the
// index was built.
func TestDescendantIndexMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := randomTable(rng)
		ci := e.BuildChildIndex()
		late := e.ElementSymbol("late")
		for p := PathID(0); int(p) < e.NumPaths(); p++ {
			if all := descendantsWalk(ci, p); !slices.Equal(ci.within(p, allInPreorder(ci)), all) {
				t.Fatalf("seed %d: pre-order range of path %d differs from the walk", seed, p)
			}
			checkDescendants(t, e, ci, p, 0, true)
			for s := Symbol(0); int(s) < e.NumSymbols(); s++ {
				checkDescendants(t, e, ci, p, s, false)
			}
			if got := ci.DescendantsEnding(p, late); got != nil {
				t.Fatalf("seed %d: a designator interned after the build matched %v", seed, got)
			}
		}
		if ci.ElementDescendants(InvalidPath) != nil || ci.DescendantsEnding(PathID(e.NumPaths()), 1) != nil {
			t.Fatalf("seed %d: out-of-range path matched", seed)
		}
	}
}

// allInPreorder lists every path but EmptyPath by pre-order position.
func allInPreorder(ci *ChildIndex) []PathID {
	out := make([]PathID, len(ci.pre)-1)
	for p, pos := range ci.pre {
		if pos > 0 {
			out[pos-1] = PathID(p)
		}
	}
	return out
}

func FuzzDescendantIndex(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0))
	f.Add(int64(7), uint16(3), uint16(2))
	f.Add(int64(42), uint16(9), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, path, sym uint16) {
		e := randomTable(rand.New(rand.NewSource(seed)))
		ci := e.BuildChildIndex()
		p := PathID(int(path) % e.NumPaths())
		// One pick beyond the symbol table stands for '*'.
		s := Symbol(int(sym) % (e.NumSymbols() + 1))
		checkDescendants(t, e, ci, p, s, int(s) == e.NumSymbols())
	})
}

// TestHashValueMatchesFNV pins the inlined hash to hash/fnv's 32-bit FNV-1a:
// a different bucket would change every value designator on disk.
func TestHashValueMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, space := range []int{1, 7, 1000, 1 << 20} {
		e := NewEncoder(space)
		for i := 0; i < 2000; i++ {
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			h := fnv.New32a()
			h.Write(b)
			if got, want := e.HashValue(string(b)), int(h.Sum32()%uint32(space)); got != want {
				t.Fatalf("space %d, value %q: bucket %d, hash/fnv %d", space, b, got, want)
			}
		}
	}
}

// TestValueDesignatorsAllocateNothing: interning a seen bucket and looking
// one up allocate nothing; only a new bucket's key and name do.
func TestValueDesignatorsAllocateNothing(t *testing.T) {
	e := NewEncoder(0)
	want := e.ValueSymbol("boston")
	if got := testing.AllocsPerRun(100, func() {
		if s, ok := e.LookupValueSymbol("boston"); !ok || s != want {
			t.Fatal("lookup lost the bucket")
		}
		if e.ValueSymbol("boston") != want {
			t.Fatal("re-interning moved the bucket")
		}
	}); got != 0 {
		t.Fatalf("%.1f allocs per lookup + intern, want 0", got)
	}
	if got := e.SymbolName(want); got != "v"+strconv.Itoa(e.HashValue("boston")) {
		t.Fatalf("value designator name %q", got)
	}
}

// TestValueDesignatorsDictUnchanged pins the encoded dictionary — the
// XSEQFLAT DICT section is gob(Snapshot) — of an encoder fed random values
// and paths to the bytes the fmt-based designator code wrote.
func TestValueDesignatorsDictUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEncoder(0)
	for i := 0; i < 500; i++ {
		p := e.Extend(EmptyPath, e.ElementSymbol(string(rune('a'+rng.Intn(5)))))
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		e.Extend(p, e.ValueSymbol(string(b)))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "54f331e87c876792850a953237d2f40ee60bfa04b337ec096f79f675c9437d71"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("dictionary digest %s, want %s", got, want)
	}
}
