package sequence

import (
	"slices"
	"testing"

	"xseq/internal/pathenc"
	"xseq/internal/schema"
	"xseq/internal/xmltree"
)

// instFixture interns a small path family and returns the encoder, the
// strategy (as Prioritizer), and the paths.
func instFixture(t *testing.T) (*pathenc.Encoder, *Probability, map[string]pathenc.PathID) {
	t.Helper()
	enc := pathenc.NewEncoder(0)
	s := NewProbability(schema.Figure12(), enc)
	m := map[string]pathenc.PathID{}
	P := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("P"))
	m["P"] = P
	m["PR"] = enc.Extend(P, enc.ElementSymbol("R"))
	m["PRU"] = enc.Extend(m["PR"], enc.ElementSymbol("U"))
	m["PRL"] = enc.Extend(m["PR"], enc.ElementSymbol("L"))
	m["PRUM"] = enc.Extend(m["PRU"], enc.ElementSymbol("M"))
	return enc, s, m
}

// orderInstance is the plan of an instance without identical siblings,
// which is its one sequence.
func orderInstance(t *testing.T, paths []pathenc.PathID, parents []int, prio Prioritizer) Sequence {
	t.Helper()
	var pl Plan
	pl.Build(paths, parents, prio)
	if len(pl.Groups) != 0 || pl.Orders != 1 {
		t.Fatalf("instance %v/%v has %d groups, %d orders", paths, parents, len(pl.Groups), pl.Orders)
	}
	seq := make(Sequence, len(pl.Ops))
	for i, op := range pl.Ops {
		seq[i] = op.Path
	}
	return seq
}

// planSequences reads every sequence off pl the way the query kernel walks
// it: at a head, one branch per class among the members not chosen yet; at
// an end op, back to the head while members remain, else past the group.
func planSequences(pl *Plan) []Sequence {
	perm := make([]int32, len(pl.Members))
	for i := range perm {
		perm[i] = int32(i)
	}
	done := make([]int32, len(pl.Groups))
	var out []Sequence
	var seq Sequence
	var walk func(pc int32)
	walk = func(pc int32) {
		for int(pc) < len(pl.Ops) && pl.Ops[pc].End {
			g := pl.Groups[pl.Ops[pc].Group]
			if done[pl.Ops[pc].Group] < g.N {
				pc = g.Head
				break
			}
			pc = g.Next
		}
		if int(pc) == len(pl.Ops) {
			out = append(out, slices.Clone(seq))
			return
		}
		op := pl.Ops[pc]
		seq = append(seq, op.Path)
		defer func() { seq = seq[:len(seq)-1] }()
		if op.Group < 0 {
			walk(pc + 1)
			return
		}
		g := pl.Groups[op.Group]
		mem, k := perm[g.Off:g.Off+g.N], done[op.Group]
		done[op.Group]++
		for j := k; j < g.N; j++ {
			if slices.ContainsFunc(mem[k:j], func(m int32) bool { return pl.Classes[m] == pl.Classes[mem[j]] }) {
				continue
			}
			mem[k], mem[j] = mem[j], mem[k]
			walk(pl.Members[mem[k]])
			mem[k], mem[j] = mem[j], mem[k]
		}
		done[op.Group]--
	}
	walk(0)
	return out
}

// The oracle is the enumerator Plan replaced, without its cap: it sequences
// the instance once per rank assignment of every identical group's members
// (the cartesian product of their permutations), breaking priority ties on
// (path, rank, index), and keeps the distinct sequences.

type oracleNode struct {
	path      pathenc.PathID
	children  []int
	identical bool
	rank      int // permutation rank within the node's identical group
}

func oracleNodes(paths []pathenc.PathID, parents []int) []oracleNode {
	nodes := make([]oracleNode, len(paths))
	for i := range paths {
		nodes[i].path = paths[i]
	}
	for i, par := range parents {
		if par >= 0 {
			nodes[par].children = append(nodes[par].children, i)
		}
	}
	for i := range nodes {
		ch := nodes[i].children
		for a := range ch {
			for b := a + 1; b < len(ch); b++ {
				if nodes[ch[a]].path == nodes[ch[b]].path {
					nodes[ch[a]].identical, nodes[ch[b]].identical = true, true
				}
			}
		}
	}
	return nodes
}

func oracleOrder(nodes []oracleNode, parents []int, prio Prioritizer) Sequence {
	var out Sequence
	blocks := func(i int) bool {
		_, b := prio.Rank(nodes[i].path)
		return nodes[i].identical || b
	}
	better := func(a, b int) bool {
		pa, _ := prio.Rank(nodes[a].path)
		if pb, _ := prio.Rank(nodes[b].path); pa != pb {
			return pa > pb
		}
		if nodes[a].path != nodes[b].path {
			return nodes[a].path < nodes[b].path
		}
		if nodes[a].rank != nodes[b].rank {
			return nodes[a].rank < nodes[b].rank
		}
		return a < b
	}
	var emitList func(local []int)
	emitList = func(local []int) {
		for len(local) > 0 {
			best := 0
			for k := 1; k < len(local); k++ {
				if better(local[k], local[best]) {
					best = k
				}
			}
			c := local[best]
			local = append(local[:best], local[best+1:]...)
			out = append(out, nodes[c].path)
			if blocks(c) {
				emitList(slices.Clone(nodes[c].children))
			} else {
				local = append(local, nodes[c].children...)
			}
		}
	}
	var roots []int
	for i, par := range parents {
		if par < 0 {
			roots = append(roots, i)
		}
	}
	emitList(roots)
	return out
}

func enumerateInstanceOrders(paths []pathenc.PathID, parents []int, prio Prioritizer) []Sequence {
	nodes := oracleNodes(paths, parents)
	groups := map[[2]int][]int{}
	var keys [][2]int
	for i, par := range parents {
		if nodes[i].identical {
			k := [2]int{par, int(paths[i])}
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], i)
		}
	}
	var out []Sequence
	seen := map[string]bool{}
	var assign func(g int)
	assign = func(g int) {
		if g == len(keys) {
			if s := oracleOrder(nodes, parents, prio); !seen[s.Key()] {
				seen[s.Key()] = true
				out = append(out, s)
			}
			return
		}
		members := groups[keys[g]]
		perm := make([]int, len(members))
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == len(perm) {
				for i, m := range members {
					nodes[m].rank = perm[i]
				}
				assign(g + 1)
				return
			}
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	}
	assign(0)
	return out
}

// checkPlan asserts that the plan admits exactly the oracle's sequences,
// each once, and counts them in Orders.
func checkPlan(t *testing.T, paths []pathenc.PathID, parents []int, prio Prioritizer) *Plan {
	t.Helper()
	var pl Plan
	pl.Build(paths, parents, prio)
	got, want := planSequences(&pl), enumerateInstanceOrders(paths, parents, prio)
	keys := func(seqs []Sequence) []string {
		ks := make([]string, len(seqs))
		for i, s := range seqs {
			ks[i] = s.Key()
		}
		slices.Sort(ks)
		return ks
	}
	if g, w := keys(got), keys(want); !slices.Equal(g, w) {
		t.Fatalf("instance %v/%v: plan admits %v, oracle %v", paths, parents, g, w)
	}
	if pl.Orders != len(want) {
		t.Fatalf("instance %v/%v: Orders = %d, oracle has %d", paths, parents, pl.Orders, len(want))
	}
	return &pl
}

func TestOrderInstancePriorityOrder(t *testing.T) {
	_, s, m := instFixture(t)
	// Instance: P with two branches, R.L and R.U.M (levels skipped, as
	// descendant instantiation produces).
	paths := []pathenc.PathID{m["P"], m["PRL"], m["PRUM"]}
	parents := []int{-1, 0, 0}
	got := orderInstance(t, paths, parents, s)
	// Priorities: P(1) > PRUM(0.576) > PRL(0.36) — PRUM first despite
	// document order.
	want := Sequence{m["P"], m["PRUM"], m["PRL"]}
	if !Equal(got, want) {
		t.Fatalf("order = %v want %v", got, want)
	}
}

func TestOrderInstanceParentBeforeChild(t *testing.T) {
	_, s, m := instFixture(t)
	// Child listed before parent in the arrays; ordering must still emit
	// the parent first (candidacy requires the parent emitted).
	paths := []pathenc.PathID{m["PRU"], m["P"], m["PR"]}
	parents := []int{2, -1, 1}
	got := orderInstance(t, paths, parents, s)
	want := Sequence{m["P"], m["PR"], m["PRU"]}
	if !Equal(got, want) {
		t.Fatalf("order = %v want %v", got, want)
	}
}

func TestEnumerateInstanceOrdersGroups(t *testing.T) {
	enc, s, m := instFixture(t)
	// Two identical-path siblings PRL under P with DIFFERENT subtrees
	// (one has a value child): one slot, 2 orders.
	v := enc.Extend(m["PRL"], enc.ValueSymbol("boston"))
	paths := []pathenc.PathID{m["P"], m["PRL"], m["PRL"], v}
	parents := []int{-1, 0, 0, 2}
	pl := checkPlan(t, paths, parents, s)
	if pl.Orders != 2 || len(pl.Groups) != 1 || pl.Len != 4 {
		t.Fatalf("plan %+v: want one group, 2 orders", pl)
	}
	// The value chains right after its own PRL in both orders.
	for _, o := range planSequences(pl) {
		if o[0] != m["P"] || o[slices.Index(o, v)-1] != m["PRL"] {
			t.Fatalf("bad order %v", o)
		}
	}
	// Indistinguishable members (same subtree) share a class: one order.
	paths2 := []pathenc.PathID{m["P"], m["PRL"], m["PRL"]}
	if pl := checkPlan(t, paths2, []int{-1, 0, 0}, s); pl.Orders != 1 {
		t.Fatalf("identical members give %d orders", pl.Orders)
	}
	// Three distinguishable members: 3! orders, none capped.
	v1 := enc.Extend(m["PRL"], enc.ValueSymbol("a-value"))
	v2 := enc.Extend(m["PRL"], enc.ValueSymbol("b-value"))
	paths3 := []pathenc.PathID{m["P"], m["PRL"], v1, m["PRL"], v2, m["PRL"], v}
	if pl := checkPlan(t, paths3, []int{-1, 0, 1, 0, 3, 0, 5}, s); pl.Orders != 6 {
		t.Fatalf("three distinct members give %d orders", pl.Orders)
	}
}

func TestOrderInstanceRepeatBlocking(t *testing.T) {
	enc, _, m := instFixture(t)
	// Let L repeat in the schema: a single PRL node must still emit its
	// subtree as a contiguous block, pushing its low-priority value ahead
	// of the higher-priority PRUM sibling branch.
	sch := schema.Figure12()
	sch.FindByNamePath([]string{"P", "R", "L"}).MaxRepeat = 2
	s := NewProbability(sch, enc)
	if !s.Blocks(m["PRL"]) {
		t.Fatal("Blocks should report the repeat path")
	}
	v := enc.Extend(m["PRL"], enc.ValueSymbol("boston"))
	paths := []pathenc.PathID{m["P"], m["PRL"], v, m["PRUM"]}
	parents := []int{-1, 0, 1, 0}
	got := orderInstance(t, paths, parents, s)
	want := Sequence{m["P"], m["PRUM"], m["PRL"], v}
	// PRUM (0.576) precedes the PRL block (0.36); within the block the
	// value chains immediately after PRL.
	if !Equal(got, want) {
		t.Fatalf("order = %v want %v", got, want)
	}
	// Per-instance mode disables repeat blocking.
	s.PerInstanceBlocking = true
	if s.Blocks(m["PRL"]) {
		t.Fatal("per-instance mode should not block repeat paths")
	}
	// An identical group blocks per instance in both modes.
	pathsB := []pathenc.PathID{m["P"], m["PRL"], v, m["PRL"]}
	parentsB := []int{-1, 0, 1, 0}
	for _, perInstance := range []bool{true, false} {
		s.PerInstanceBlocking = perInstance
		if pl := checkPlan(t, pathsB, parentsB, s); pl.Orders != 2 {
			t.Fatalf("per-instance %v: instance-identical group orders = %d", perInstance, pl.Orders)
		}
	}
}

func TestRepeatPathsScan(t *testing.T) {
	enc := pathenc.NewEncoder(0)
	docs := []*xmltree.Node{
		xmltree.NewElem("P", xmltree.NewElem("L"), xmltree.NewElem("L")),
		xmltree.NewElem("P", xmltree.NewElem("M")),
	}
	rep := RepeatPaths(docs, enc)
	P := enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("P"))
	PL := enc.Extend(P, enc.ElementSymbol("L"))
	PM := enc.Extend(P, enc.ElementSymbol("M"))
	if !rep[PL] {
		t.Fatal("PL should be repeat-capable")
	}
	if rep[PM] || rep[P] {
		t.Fatalf("unexpected repeat paths: %v", rep)
	}
}

// fuzzPrio gives paths few distinct priorities, so ties on priority (broken
// by path, then index) are common, and blocks a third of the paths as if
// they repeated in the corpus.
type fuzzPrio struct{ mul, block int }

func (p fuzzPrio) Rank(q pathenc.PathID) (float64, bool) {
	return float64(int(q) * p.mul % 3), (int(q)+p.block)%3 == 0
}

// FuzzInstanceOrders checks the plan against the oracle on random instances
// of up to 8 nodes over a 3-letter alphabet, which gives identical groups
// nested in members of other groups, members with equal and with distinct
// subtrees, and repeat-blocked paths. Node indices are reversed on odd
// first bytes, so parents also follow their children.
func FuzzInstanceOrders(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2})
	f.Add([]byte{2, 0, 1, 0, 1, 1, 2, 2, 2, 2, 0, 3, 0})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 1 {
			return
		}
		enc := pathenc.NewEncoder(0)
		syms := []pathenc.Symbol{enc.ElementSymbol("a"), enc.ElementSymbol("b"), enc.ElementSymbol("c")}
		paths := []pathenc.PathID{enc.Extend(pathenc.EmptyPath, enc.ElementSymbol("r"))}
		parents := []int{-1}
		for i := 1; 2*i < len(raw) && i < 8; i++ {
			par := int(raw[2*i-1]) % i
			paths = append(paths, enc.Extend(paths[par], syms[int(raw[2*i])%len(syms)]))
			parents = append(parents, par)
		}
		if raw[0]&1 == 1 {
			n := len(paths)
			slices.Reverse(paths)
			slices.Reverse(parents)
			for i, par := range parents {
				if par >= 0 {
					parents[i] = n - 1 - par
				}
			}
		}
		checkPlan(t, paths, parents, fuzzPrio{mul: int(raw[0]>>1)%5 + 1, block: int(raw[0] >> 4)})
	})
}
