package xseq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"xseq/internal/engine"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/wal"
	"xseq/internal/xmltree"
)

// The equivalence oracle. The paper's guarantees are one property: a
// constraint match is a tree-pattern match (Thm 2), the sibling-cover test
// removes exactly the false alarms of naive matching (Thm 3, Fig 4),
// whatever the sibling order (Fig 5), and a constraint sequence decodes to
// its tree (Thm 1). FuzzEquivalence checks it on every constructor the
// library offers, over a corpus and patterns that a byte stream decides.
// Its seeds run in every `go test`; `go test -fuzz FuzzEquivalence`
// searches further and shrinks a failure into
// testdata/fuzz/FuzzEquivalence.

// choices reads a fuzz input as a stream of decisions. Past the end every
// decision takes its smallest option, so a shorter input decodes to a
// smaller corpus and smaller patterns.
type choices []byte

// intn returns a decision in [0, n).
func (c *choices) intn(n int) int {
	if len(*c) == 0 || n <= 1 {
		return 0
	}
	v := int((*c)[0])
	*c = (*c)[1:]
	return v % n
}

// yes holds with probability q/4 (q < 4), never past the end of the input.
func (c *choices) yes(q int) bool { return c.intn(4) >= 4-q }

var (
	oracleLabels = []string{"a", "b", "c", "d", "e"}
	oracleValues = []string{"x", "xy", "xyz", "y", "yx"}
)

// shape bounds the generated documents: depth below the root, fan-out,
// and the chances (in quarters) that an element child comes as a run of
// 2–3 identical siblings, and that an element carries a value. split
// collects the nodes whose children (two or more) a run shares out among
// its members.
type shape struct {
	labels                       []string
	depth, fan, identical, value int
	split                        []*xmltree.Node
}

// oracleCase is one decoded input.
type oracleCase struct {
	cfg      Config
	docs     []*Document
	patterns []string
	limits   []int // the QueryLimit budget of each pattern
	sched    schedule
	layouts  int  // query every constructor (0), or only the single-partition (1), sharded (2) or dynamic (3) ones
	strict   bool // every pattern must answer: none may be too broad
}

// schedule is how the updatable constructors receive a corpus. BuildDynamic
// builds docs[:split] and inserts the rest one at a time, running ops[i]
// after the i-th insert. ResumeDynamic adopts a checkpoint of docs[:split],
// replays a log of docs[walFrom:walTo] (the overlap with the checkpoint is
// skipped) and inserts the rest. A follower re-seeds from that checkpoint
// as covering entry walFrom and applies a replicated stream of
// docs[walFrom:], skipping the overlap.
type schedule struct {
	threshold, split, walFrom, walTo int
	ops                              []int
	weights                          map[string]float64 // for Resequence and RebuildWithWeights
}

// Schedule operations; the other op values only insert.
const (
	opCompact    = 4
	opResequence = 5
	numOps       = 6
)

// decodeCase decodes an input. Its first byte picks {Weights unset, set} ×
// {hashed values, TextValues} × {no cache, QueryCacheEntries}; its second
// a value space of 3 buckets (hash collisions), a small instantiation
// limit, and the constructors to query.
func decodeCase(data []byte) oracleCase {
	c := choices(data)
	var oc oracleCase
	mode, knobs := c.intn(8), c.intn(32)
	oc.layouts = knobs >> 3
	oc.cfg.TextValues = mode&2 != 0
	if mode&4 != 0 {
		oc.cfg.QueryCacheEntries = 8
	}
	if knobs&1 != 0 && !oc.cfg.TextValues {
		oc.cfg.ValueSpace = 3
	}
	// A pattern with hundreds of instances costs as much as the rest of
	// an input, so every input caps them.
	oc.cfg.InstantiationLimit = 256
	if knobs&6 == 6 {
		oc.cfg.InstantiationLimit = 2 + c.intn(15)
	}
	n := 2 + c.intn(39)
	sh := shape{labels: oracleLabels[:2+c.intn(4)], depth: 1 + c.intn(4), fan: 1 + c.intn(4), identical: c.intn(4), value: c.intn(4)}
	for i := range n {
		oc.docs = append(oc.docs, &Document{id: int32(i), root: c.tree("r", sh.depth, &sh)})
	}
	for k := 1 + c.intn(12); k > 0; k-- {
		oc.patterns = append(oc.patterns, c.pattern(oc.docs, &sh, oc.cfg.TextValues))
		oc.limits = append(oc.limits, 1+c.intn(6))
	}
	s := &oc.sched
	s.threshold = 2 + c.intn(7)
	s.split = 1 + c.intn(n-1)
	s.walFrom = c.intn(s.split + 1)
	s.walTo = s.split + c.intn(n-s.split+1)
	for range n - s.split {
		s.ops = append(s.ops, c.intn(numOps))
	}
	s.weights = c.weights(oc.docs)
	if mode&1 != 0 {
		// Build fails on a path its corpus lacks; the rebuilds keep it.
		oc.cfg.Weights = maps.Clone(s.weights)
		delete(oc.cfg.Weights, absentPath)
	}
	return oc
}

// tree generates an element and, depth permitting, its children: a value
// first, then up to sh.fan elements, some in runs of identical siblings,
// so that a path occurs once in one document and 2–3 times in another.
// Half the runs share one generated node's children out among their
// members, as Fig 4's data splits the S and B its query wants under one L.
func (c *choices) tree(label string, depth int, sh *shape) *xmltree.Node {
	n := xmltree.NewElem(label)
	if depth == 0 {
		return n
	}
	if c.yes(sh.value) {
		n.Children = append(n.Children, xmltree.NewValue(oracleValues[c.intn(len(oracleValues))]))
	}
	for k := c.intn(sh.fan + 1); k > 0; {
		name, run := sh.labels[c.intn(len(sh.labels))], 1
		if c.yes(sh.identical) {
			run = min(2+c.intn(2), k)
		}
		if run > 1 && c.yes(2) {
			whole, members := c.tree(name, depth-1, sh), make([]*xmltree.Node, run)
			for i := range members {
				members[i] = xmltree.NewElem(name)
			}
			for _, ch := range whole.Children {
				m := members[c.intn(run)]
				m.Children = append(m.Children, ch)
			}
			if len(whole.Children) > 1 {
				sh.split = append(sh.split, whole)
			}
			n.Children, k = append(n.Children, members...), k-run
			continue
		}
		for ; run > 0; run, k = run-1, k-1 {
			n.Children = append(n.Children, c.tree(name, depth-1, sh))
		}
	}
	return n
}

// pattern generates a query: mostly one lifted from a corpus document or
// from a node a run split (naive matching finds it whole in the run's
// members, Fig 4's false alarm), otherwise a free one over the alphabet.
func (c *choices) pattern(docs []*Document, sh *shape, text bool) string {
	var root *query.PNode
	switch {
	case c.yes(3):
		d := docs[c.intn(len(docs))].root
		switch {
		case len(sh.split) > 0 && c.yes(2):
			root = c.lift(sh.split[c.intn(len(sh.split))], query.AxisDescendant, text, 3)
		case c.yes(1):
			var elems []*xmltree.Node
			d.Walk(func(n *xmltree.Node) bool {
				if !n.IsValue {
					elems = append(elems, n)
				}
				return true
			})
			root = c.lift(elems[c.intn(len(elems))], query.AxisDescendant, text, 2)
		default:
			root = c.lift(d, query.AxisChild, text, 2)
		}
	case c.yes(2):
		root = c.free(sh, query.AxisDescendant, 2, text)
	default:
		root = c.free(sh, query.AxisChild, 2, text)
		root.Name, root.Wildcard = "r", false
	}
	return (&query.Pattern{Root: root}).String()
}

// lift writes document node n as a pattern step on axis ax and keeps a
// random part of its subtree: each child with probability keep/4, its
// descendants with probability 1/2. A kept element child stays a child step or
// gives way to one of its own element children on a descendant step; an
// element step may turn into '*', and in text mode a value into a prefix.
func (c *choices) lift(n *xmltree.Node, ax query.Axis, text bool, keep int) *query.PNode {
	p := &query.PNode{Axis: ax, Name: n.Name, IsValue: n.IsValue, Value: n.Value}
	if n.IsValue {
		if text && c.yes(1) {
			p.Value, p.Prefix = n.Value[:1+c.intn(len(n.Value))], true
		}
		return p
	}
	if c.yes(1) {
		p.Name, p.Wildcard = "", true
	}
	for _, ch := range n.Children {
		if !c.yes(keep) {
			continue
		}
		var below []*xmltree.Node
		for _, g := range ch.Children {
			if !g.IsValue {
				below = append(below, g)
			}
		}
		if len(below) > 0 && c.yes(1) {
			p.Children = append(p.Children, c.lift(below[c.intn(len(below))], query.AxisDescendant, text, 2))
		} else {
			p.Children = append(p.Children, c.lift(ch, query.AxisChild, text, 2))
		}
	}
	return p
}

// free generates a pattern step that need not occur in any document.
func (c *choices) free(sh *shape, ax query.Axis, depth int, text bool) *query.PNode {
	p := &query.PNode{Axis: ax}
	if k := c.intn(len(sh.labels) + 1); k < len(sh.labels) {
		p.Name = sh.labels[k]
	} else {
		p.Wildcard = true
	}
	for k := c.intn(3); depth > 0 && k > 0; k-- {
		cax := query.AxisChild
		if c.yes(1) {
			cax = query.AxisDescendant
		}
		p.Children = append(p.Children, c.free(sh, cax, depth-1, text))
	}
	if c.yes(1) {
		v := &query.PNode{IsValue: true, Value: oracleValues[c.intn(len(oracleValues))]}
		if text && c.yes(2) {
			v.Value, v.Prefix = v.Value[:1], true
		}
		p.Children = append(p.Children, v)
	}
	return p
}

// absentPath is a weight path no generated corpus has.
const absentPath = "r/absent"

// weights generates a weight vector over the corpus's element paths, with
// absentPath.
func (c *choices) weights(docs []*Document) map[string]float64 {
	seen := map[string]bool{}
	var walk func(n *xmltree.Node, path string)
	walk = func(n *xmltree.Node, path string) {
		seen[path] = true
		for _, ch := range n.Children {
			if !ch.IsValue {
				walk(ch, path+"/"+ch.Name)
			}
		}
	}
	for _, d := range docs {
		walk(d.root, "r")
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	w := map[string]float64{absentPath: 3}
	for _, p := range paths {
		if c.yes(2) {
			w[p] = 0.5 * float64(1+c.intn(8))
		}
	}
	return w
}

// constructed is one way of getting an index over a corpus; ix is set for
// the frozen ones, which also answer Explain and naive matching.
type constructed struct {
	name string
	q    *queryable
	ix   *Index
}

// defaultSchedule inserts the last quarter of n documents into an index
// that never compacts, so they stay in pending segments, and resumes a
// checkpoint of the first three quarters.
func defaultSchedule(n int) schedule {
	split := max(1, n*3/4)
	return schedule{threshold: 1 << 20, split: split, walFrom: split, walTo: split, ops: make([]int, n-split)}
}

// everyConstructor indexes docs under cfg, with the corpus kept, every way
// the library offers: a build; a Save→Load round trip; a mapped
// SaveFile→LoadFile; RebuildWithWeights of the build; 2, 3 and 8 shards
// and RebuildWithWeights of 3; BuildDynamic, ResumeDynamic and a re-seeded
// follower under sched.
// layouts keeps one family, as oracleCase.layouts selects, or all (0). A
// query cache in cfg is installed on every one. Each holds every
// document, in the layout and shard count it was built for.
func everyConstructor(t *testing.T, docs []*Document, cfg Config, sched schedule, layouts int) []constructed {
	t.Helper()
	cfg.KeepDocuments = true
	must := func(ix *Index, err error) *Index {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.QueryCacheEntries > 0 {
			ix.EnableQueryCache(cfg.QueryCacheEntries)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	static := func(name string, ix *Index) constructed {
		t.Helper()
		if st := ix.Stats(); st.Documents != len(docs) {
			t.Fatalf("%s: %d documents, want %d", name, st.Documents, len(docs))
		}
		return constructed{name, &ix.queryable, ix}
	}
	var cons []constructed
	if layouts == 0 || layouts == 1 {
		built := must(Build(docs, cfg))
		var buf bytes.Buffer
		if err := built.Save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "x.idx")
		flatCfg := cfg
		flatCfg.Layout = LayoutFlat
		flatIx := must(Build(docs, flatCfg))
		if st := flatIx.Stats(); flatIx.Layout() != LayoutFlat || st.Flat == nil || st.Flat.MappedBytes == 0 {
			t.Fatalf("Layout flat: layout %q, flat figures %+v", flatIx.Layout(), st.Flat)
		}
		if err := flatIx.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		cons = append(cons,
			static("Build", built),
			static("Save-Load", must(Load(&buf))),
			static("SaveFile-LoadFile", must(LoadFile(path))),
			static("RebuildWithWeights", must(built.RebuildWithWeights(context.Background(), sched.weights))))
	}
	if layouts == 0 || layouts == 2 {
		for _, k := range []int{2, 3, 8} {
			shardCfg := cfg
			shardCfg.Shards = k
			sharded := must(Build(docs, shardCfg))
			if got := sharded.Stats().Shards; got != k {
				t.Fatalf("Shards %d: Stats().Shards = %d", k, got)
			}
			cons = append(cons, static(fmt.Sprintf("Shards %d", k), sharded))
			if k == 3 {
				cons = append(cons, static("RebuildWithWeights Shards 3", must(sharded.RebuildWithWeights(context.Background(), sched.weights))))
			}
		}
	}
	if layouts != 0 && layouts != 3 {
		return cons
	}
	dyn, _ := buildDynamicCase(t, docs, cfg, sched)
	ckpt := checkpointCase(t, docs, cfg, sched)
	resumed := resumeDynamicCase(t, docs, cfg, sched, ckpt)
	follower := followDynamicCase(t, docs, cfg, sched, ckpt)
	if dyn.NumDocuments() != len(docs) || resumed.NumDocuments() != len(docs) || follower.NumDocuments() != len(docs) {
		t.Fatalf("BuildDynamic holds %d documents, ResumeDynamic %d, the follower %d; want %d", dyn.NumDocuments(), resumed.NumDocuments(), follower.NumDocuments(), len(docs))
	}
	// With no compaction scheduled and a threshold the inserts do not
	// reach, every inserted document must still be in a pending segment,
	// so that the queries reach them there.
	if inserted := len(docs) - sched.split; sched.threshold > inserted && !slices.ContainsFunc(sched.ops, func(op int) bool { return op == opCompact || op == opResequence }) {
		if dyn.PendingDocuments() != inserted || resumed.PendingDocuments() != inserted {
			t.Fatalf("BuildDynamic has %d pending documents, ResumeDynamic %d; want the %d inserted", dyn.PendingDocuments(), resumed.PendingDocuments(), inserted)
		}
	}
	return append(cons, constructed{"BuildDynamic", &dyn.queryable, nil}, constructed{"ResumeDynamic", &resumed.queryable, nil},
		constructed{"ReseedFromSnapshot-ApplyReplicated", &follower.queryable, nil})
}

// buildDynamicCase runs sched's BuildDynamic half and reports how many
// segment merges it made: builds over inserted documents only.
func buildDynamicCase(t *testing.T, docs []*Document, cfg Config, sched schedule) (*DynamicIndex, int) {
	t.Helper()
	merges := 0
	count := func(b engine.Builder) engine.Builder {
		return func(ctx context.Context, part []*xmltree.Document) (engine.Engine, error) {
			if len(part) > 1 && part[0].ID != docs[0].id {
				merges++
			}
			return b(ctx, part)
		}
	}
	dyn, err := buildDynamic(docs[:sched.split], cfg, sched.threshold, count)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	for i, d := range docs[sched.split:] {
		if err := dyn.Insert(d); err != nil {
			t.Fatal(err)
		}
		switch sched.ops[i] {
		case opCompact:
			err = dyn.Compact()
		case opResequence:
			err = dyn.Resequence(context.Background(), sched.weights)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dyn, merges
}

// checkpointCase writes the checkpoint of a dynamic index over
// docs[:sched.split] and returns its path.
func checkpointCase(t *testing.T, docs []*Document, cfg Config, sched schedule) string {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "ckpt.idx")
	primary, err := BuildDynamic(docs[:sched.split], cfg, sched.threshold)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// resumeDynamicCase runs sched's ResumeDynamic half on checkpoint ckpt.
func resumeDynamicCase(t *testing.T, docs []*Document, cfg Config, sched schedule, ckpt string) *DynamicIndex {
	t.Helper()
	walPath := filepath.Join(t.TempDir(), "tail.wal")
	w, _, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs[sched.walFrom:sched.walTo] {
		payload, err := wal.EncodeDocument(&xmltree.Document{ID: d.id, Root: d.root})
		if err == nil {
			err = w.WriteRecord(uint64(i+1), payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WALPath = walPath
	resumed, err := ResumeDynamic(loaded, cfg, sched.threshold)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resumed.Close() })
	for _, d := range docs[sched.walTo:] {
		if err := resumed.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	return resumed
}

// followDynamicCase runs sched's follower: an empty dynamic index re-seeds
// from checkpoint ckpt, read into memory, and applies the replicated
// stream.
func followDynamicCase(t *testing.T, docs []*Document, cfg Config, sched schedule, ckpt string) *DynamicIndex {
	t.Helper()
	follower, err := BuildDynamic(nil, cfg, sched.threshold)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	snap, err := loadSnapshot(ckpt)
	if err == nil {
		err = follower.ReseedFromSnapshot(snap, uint64(sched.walFrom))
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs[sched.walFrom:] {
		payload, err := wal.EncodeDocument(&xmltree.Document{ID: d.id, Root: d.root})
		if err == nil {
			err = follower.ApplyReplicated(context.Background(), uint64(sched.walFrom+i+1), payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return follower
}

// valueEncoder returns an encoder that encodes values as cfg does.
func valueEncoder(cfg Config) *pathenc.Encoder {
	if cfg.TextValues {
		return pathenc.NewTextEncoder()
	}
	return pathenc.NewEncoder(cfg.ValueSpace)
}

// canonicalPattern rewrites a pattern's values the way
// sequence.CanonicalizeValues rewrites a document's: to their hash bucket,
// or to a chain of characters, in which a value is also a prefix.
func canonicalPattern(n *query.PNode, enc *pathenc.Encoder) *query.PNode {
	if n.IsValue {
		root := query.FromTree(sequence.CanonicalizeValues(xmltree.NewValue(n.Value), enc)).Root
		root.Axis = n.Axis
		return root
	}
	cp := &query.PNode{Axis: n.Axis, Wildcard: n.Wildcard, Name: n.Name}
	for _, ch := range n.Children {
		cp.Children = append(cp.Children, canonicalPattern(ch, enc))
	}
	return cp
}

// groundTruth answers pats over docs with the tree-pattern matcher: plain
// at the designator level the index works at (values canonicalised as cfg
// encodes them), exact over the raw corpus.
func groundTruth(docs []*Document, pats []*query.Pattern, cfg Config) (plain, exact [][]int32) {
	enc := valueEncoder(cfg)
	raw := make([]*xmltree.Document, len(docs))
	canon := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		raw[i] = &xmltree.Document{ID: d.id, Root: d.root}
		canon[i] = &xmltree.Document{ID: d.id, Root: sequence.CanonicalizeValues(d.root, enc)}
	}
	for _, p := range pats {
		plain = append(plain, query.Eval(canon, &query.Pattern{Root: canonicalPattern(p.Root, enc)}))
		exact = append(exact, query.Eval(raw, p))
	}
	return plain, exact
}

// permuted returns a copy of the tree with every sibling list shuffled.
func permuted(n *xmltree.Node, rng *rand.Rand) *xmltree.Node {
	cp := &xmltree.Node{Name: n.Name, Value: n.Value, IsValue: n.IsValue}
	for _, i := range rng.Perm(len(n.Children)) {
		cp.Children = append(cp.Children, permuted(n.Children[i], rng))
	}
	return cp
}

// permutedPattern returns a copy of the pattern with every step's
// predicates shuffled.
func permutedPattern(n *query.PNode, rng *rand.Rand) *query.PNode {
	cp := *n
	cp.Children = nil
	for _, i := range rng.Perm(len(n.Children)) {
		cp.Children = append(cp.Children, permutedPattern(n.Children[i], rng))
	}
	return &cp
}

// naiveBudget bounds one naive query of the oracle.
const naiveBudget = 20 * time.Millisecond

// answered checks one call's outcome: want, or ErrQueryTooBroad with no
// ids — never a partial answer. It reports whether the call answered.
func answered(t *testing.T, what string, got []int32, err error, want []int32) bool {
	t.Helper()
	switch {
	case errors.Is(err, ErrQueryTooBroad) && got == nil:
		return false
	case err != nil:
		t.Fatalf("%s: %v", what, err)
	case !slices.Equal(got, want):
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	return true
}

// checkEquivalence checks every property on one case.
func checkEquivalence(t *testing.T, oc oracleCase) {
	pats := make([]*query.Pattern, len(oc.patterns))
	for i, q := range oc.patterns {
		p, err := query.Parse(q)
		if err != nil {
			t.Fatalf("generated pattern %q: %v", q, err)
		}
		pats[i] = p
	}
	plain, exact := groundTruth(oc.docs, pats, oc.cfg)
	cons := everyConstructor(t, oc.docs, oc.cfg, oc.sched, oc.layouts)

	// Fig 5 and corpus order: a build over the corpus with every sibling
	// list shuffled, and one over the documents in another order, answer
	// alike; so does every pattern with its predicates shuffled.
	rng := rand.New(rand.NewSource(int64(len(oc.docs))))
	kids, order := make([]*Document, len(oc.docs)), make([]*Document, len(oc.docs))
	for i, j := range rng.Perm(len(oc.docs)) {
		d := oc.docs[i]
		kids[i] = &Document{id: d.id, root: permuted(d.root, rng)}
		order[j] = d
	}
	for name, docs := range map[string][]*Document{"Build, siblings shuffled": kids, "Build, corpus shuffled": order} {
		cfg := oc.cfg
		cfg.KeepDocuments = true
		ix, err := Build(docs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, constructed{name, &ix.queryable, ix})
	}

	for i, q := range oc.patterns {
		want, shuffled := plain[i], (&query.Pattern{Root: permutedPattern(pats[i].Root, rng)}).String()
		naiveSlow := false
		for _, c := range cons {
			what := func(call string) string { return fmt.Sprintf("%s: %s%s", c.name, call, q) }
			// Thm 2/3: constraint matching is tree-pattern matching at the
			// designator level, and verification makes it exact; a cached
			// answer is the same answer. A pattern too broad here is too
			// broad for every call.
			ids, err := c.q.Query(q)
			if !answered(t, what("Query "), ids, err, want) {
				if oc.strict {
					t.Fatalf("%s: %v", what("Query "), err)
				}
				continue
			}
			if oc.cfg.QueryCacheEntries > 0 {
				ids, err = c.q.Query(q)
				answered(t, what("cached Query "), ids, err, want)
			}
			ids, err = c.q.QueryVerified(q)
			answered(t, what("QueryVerified "), ids, err, exact[i])
			ids, err = c.q.Query(shuffled)
			answered(t, what("Query "+shuffled+" permuted from "), ids, err, want)
			k := oc.limits[i]
			if ids, err = c.q.QueryLimit(q, k); err == nil {
				if len(ids) != min(k, len(want)) || slices.ContainsFunc(ids, func(id int32) bool { return !slices.Contains(want, id) }) {
					t.Fatalf("%s = %v, want %d of %v", what(fmt.Sprintf("QueryLimit %d ", k)), ids, min(k, len(want)), want)
				}
			} else {
				answered(t, what("QueryLimit "), ids, err, nil)
			}
			if c.ix == nil {
				continue
			}
			// Fig 4: naive matching returns a superset, and only the cover
			// test's rejections remove documents. Naive matching is
			// exponential in identical siblings — the false alarms the
			// paper removes — so it is compared only while it finishes
			// within a deadline.
			ids, ex, err := c.ix.QueryExplain(q)
			if !answered(t, what("QueryExplain "), ids, err, want) || naiveSlow {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), naiveBudget)
			naive, err := c.q.run(ctx, q, engine.QueryOptions{Naive: true})
			cancel()
			if naiveSlow = errors.Is(err, context.DeadlineExceeded); naiveSlow {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what("naive "), err)
			}
			if slices.ContainsFunc(want, func(id int32) bool { return !slices.Contains(naive, id) }) {
				t.Fatalf("%s = %v misses answers of %v", what("naive "), naive, want)
			}
			if ex.CoverRejections == 0 && !slices.Equal(naive, want) {
				t.Fatalf("%s = %v, constraint %v with no cover rejections", what("naive "), naive, want)
			}
		}
	}
	checkDecode(t, oc)
}

// checkDecode checks Thm 1 on every document: each strategy's sequence is
// a valid constraint sequence and decodes to the value-canonical document.
func checkDecode(t *testing.T, oc oracleCase) {
	enc := valueEncoder(oc.cfg)
	roots := make([]*xmltree.Node, len(oc.docs))
	for i, d := range oc.docs {
		roots[i] = d.root
	}
	strategies := []sequence.Strategy{sequence.DepthFirst{Enc: enc}, sequence.BreadthFirst{Enc: enc}, sequence.NewRandom(enc, 1)}
	for _, weights := range []map[string]float64{nil, oc.cfg.Weights} {
		sch, err := schema.Infer(roots)
		if err == nil {
			err = sequence.ApplyWeights(sch, weights, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		strategies = append(strategies, sequence.NewProbability(sch, enc))
	}
	for _, d := range oc.docs {
		want := sequence.CanonicalizeValues(d.root, enc)
		for _, st := range strategies {
			seq := st.Sequence(d.root)
			if err := sequence.Validate(enc, seq); err != nil {
				t.Fatalf("%s: %v: %v", st.Name(), d.root, err)
			}
			if back, err := sequence.Decode(enc, seq); err != nil || !xmltree.Isomorphic(back, want) {
				t.Fatalf("%s: %v decodes to %v, %v", st.Name(), d.root, back, err)
			}
		}
	}
}

// seedInput is an oracle input: header followed by random decisions drawn
// from src. The header's bytes are mode, knobs, documents, labels, depth,
// fan-out, identical and value (see decodeCase).
func seedInput(src int64, header ...byte) []byte {
	b := make([]byte, 4096)
	rand.New(rand.NewSource(src)).Read(b)
	return append(slices.Clone(header), b...)
}

// groupedHeaders decode to grouped corpora: few labels, and most element
// children in runs of identical siblings.
var groupedHeaders = [][]byte{{0, 0, 38, 3, 2, 3, 3, 1}, {5, 6, 30, 2, 3, 3, 3, 3}}

// equivalenceSeeds covers the constructor matrix: every combination of
// weights, value encoding and cache, with and without hash collisions
// and a small instantiation limit, on corpora of 3 to 40 documents. The
// last two are grouped corpora.
func equivalenceSeeds() [][]byte {
	var seeds [][]byte
	for mode := range byte(8) {
		seeds = append(seeds, seedInput(int64(mode), mode, mode%4*2+1, 3+mode*5, mode, 1+mode%3, 2+mode%2, 1+mode%3, 2))
	}
	return append(seeds, seedInput(8, groupedHeaders[0]...), seedInput(9, groupedHeaders[1]...))
}

func FuzzEquivalence(f *testing.F) {
	for _, s := range equivalenceSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, decodeCase(data))
	})
}

// TestRandomGroupsMatchEval runs the oracle on more grouped corpora than
// the seeds hold: the grouped headers over other random decisions.
func TestRandomGroupsMatchEval(t *testing.T) {
	for src := int64(1); src <= 3; src++ {
		for i, h := range groupedHeaders {
			t.Run(fmt.Sprintf("%d/%d", i, src), func(t *testing.T) {
				checkEquivalence(t, decodeCase(seedInput(100+src, h...)))
			})
		}
	}
}

// checkCorpus runs the oracle on a fixed corpus and fixed queries, all of
// which must answer, over the constructors layouts selects (see
// oracleCase). weights drive RebuildWithWeights.
func checkCorpus(t *testing.T, docs []*Document, queries []string, cfg Config, layouts int, weights map[string]float64) {
	t.Helper()
	sched := defaultSchedule(len(docs))
	sched.weights = weights
	limits := make([]int, len(queries))
	for i := range limits {
		limits[i] = 1 + i%6
	}
	checkEquivalence(t, oracleCase{cfg: cfg, docs: docs, patterns: queries, limits: limits, sched: sched, layouts: layouts, strict: true})
}

// TestEquivalenceSeedsCoverMatrix: the seeds reach every cell of the
// constructor matrix, hold false alarms for the cover test to remove, and
// their dynamic schedules merge segments, compact, resequence, replay a
// log tail that overlaps the checkpoint, and feed a re-seeded follower a
// stream that overlaps its seed and goes past it.
func TestEquivalenceSeedsCoverMatrix(t *testing.T) {
	modes := map[int]bool{}
	var collide, limit, tiny, alarms, overlap, tail, compact, reseq, follow bool
	merges, compactions := 0, 0
	for _, s := range equivalenceSeeds() {
		oc := decodeCase(s)
		mode := 0
		if len(oc.cfg.Weights) > 0 {
			mode |= 1
		}
		if oc.cfg.TextValues {
			mode |= 2
		}
		if oc.cfg.QueryCacheEntries > 0 {
			mode |= 4
		}
		modes[mode] = true
		collide = collide || oc.cfg.ValueSpace == 3
		limit = limit || oc.cfg.InstantiationLimit < 256
		tiny = tiny || len(oc.docs) < 8
		overlap = overlap || oc.sched.walFrom < oc.sched.split
		tail = tail || oc.sched.walTo > oc.sched.split
		compact = compact || slices.Contains(oc.sched.ops, opCompact)
		reseq = reseq || slices.Contains(oc.sched.ops, opResequence)
		follow = follow || (oc.layouts == 0 || oc.layouts == 3) && oc.sched.walFrom < oc.sched.split && oc.sched.split < len(oc.docs)
		ix, err := Build(oc.docs, oc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range oc.patterns {
			ids, err := ix.Query(q)
			naive, nerr := ix.run(context.Background(), q, engine.QueryOptions{Naive: true})
			alarms = alarms || err == nil && nerr == nil && !slices.Equal(ids, naive)
		}
		dyn, m := buildDynamicCase(t, oc.docs, oc.cfg, oc.sched)
		merges += m
		compactions += dyn.Health().Compactions
	}
	if len(modes) != 8 || !collide || !limit || !tiny || !alarms || !overlap || !tail || !compact || !reseq || !follow || merges == 0 || compactions == 0 {
		t.Fatalf("seeds miss part of the matrix: modes %v, collisions %v, limit %v, shards > documents %v, false alarms %v, log overlap %v, log tail %v, Compact %v, Resequence %v, follower %v, merges %d, compactions %d",
			modes, collide, limit, tiny, alarms, overlap, tail, compact, reseq, follow, merges, compactions)
	}
}

// paperRow is one pinned answer on a paper fixture. verified, when set,
// differs from the plain answer (a value that is a prefix of another in
// text mode); naive, when set, is naive matching's answer.
type paperRow struct {
	q                      string
	plain, verified, naive []int32
}

// TestPaperTable pins the paper's fixture queries, and the minimal cases
// the oracle has found. Every row holds for the tree-pattern matcher and
// for every constructor.
func TestPaperTable(t *testing.T) {
	corpus := func(ids []int32, roots ...*xmltree.Node) []*Document {
		docs := make([]*Document, len(roots))
		for i, r := range roots {
			docs[i] = &Document{id: ids[i], root: r}
		}
		return docs
	}
	city := func(v string) *xmltree.Node { return xmltree.NewElem("P", xmltree.NewElem("L", xmltree.NewValue(v))) }
	for _, tc := range []struct {
		name string
		docs []*Document
		cfg  Config
		rows []paperRow
	}{
		{"Section3.1", corpus([]int32{7, 9}, xmltree.Figure1(), xmltree.Figure2a()), Config{}, []paperRow{
			{q: "/P[R/L='newyork']/D[L='boston']", plain: []int32{7}},
			{q: "/P/*[L='boston']", plain: []int32{7}},
		}},
		{"Fig4", corpus([]int32{0}, xmltree.Figure4D()), Config{}, []paperRow{
			{q: "/P/L[S][B]", plain: nil, naive: []int32{0}}, // the false alarm
			{q: "/P/L/S", plain: []int32{0}},
			{q: "/P/L/B", plain: []int32{0}},
			{q: "/P[L/S][L/B]", plain: []int32{0}},
		}},
		{"Fig5", corpus([]int32{0, 1}, xmltree.Figure5a(), xmltree.Figure5b()), Config{}, []paperRow{
			{q: "/P[L/S][L/B]", plain: []int32{0, 1}},
		}},
		{"Fig3", corpus([]int32{0, 1}, xmltree.Figure3c(), xmltree.Figure3b()), Config{}, []paperRow{
			{q: "/P/D[L][M]", plain: []int32{0}},   // one D over both
			{q: "/P[D/L][D/M]", plain: []int32{1}}, // two distinct D witnesses
		}},
		{"DescendantAndValue", corpus([]int32{0, 1}, xmltree.Figure1(), xmltree.Figure3a()), Config{}, []paperRow{
			{q: "//N[text='GUI']", plain: []int32{0}},
			{q: "//L[text='boston']", plain: []int32{0, 1}},
			{q: "/P//M[text='mary']", plain: []int32{0}},
			{q: "//U", plain: []int32{0}},
			{q: "//Z", plain: nil},
			{q: "/P/R/L[text='boston']", plain: []int32{1}},
		}},
		{"TextValues", corpus([]int32{0, 1, 2, 3}, city("boston"), city("bologna"), city("newyork"), city("bo")), Config{TextValues: true}, []paperRow{
			{q: "/P/L[text='boston']", plain: []int32{0}},
			{q: "/P/L[text='bostom']", plain: nil},
			{q: "/P/L[text='bo*']", plain: []int32{0, 1, 3}},
			{q: "/P/L[text='bz*']", plain: nil},
			{q: "/P/L[text='bo']", plain: []int32{0, 1, 3}, verified: []int32{3}},
		}},
		// Not a paper figure: descendant steps that skip a level another
		// step passes through, where FuzzEquivalence found false
		// dismissals.
		{"SharedSkippedLevel", corpus([]int32{0, 1, 2, 3},
			xmltree.NewElem("r", xmltree.NewElem("a", xmltree.NewElem("f")), xmltree.NewElem("a", xmltree.NewElem("e"))),
			xmltree.NewElem("r", xmltree.NewElem("a", xmltree.NewElem("e")), xmltree.NewElem("a", xmltree.NewElem("f"))),
			xmltree.NewElem("r", xmltree.NewElem("a", xmltree.NewElem("e"), xmltree.NewElem("f"))),
			xmltree.NewElem("r", xmltree.NewElem("a"), xmltree.NewElem("a"))), Config{}, []paperRow{
			{q: "/r[//e][//f]", plain: []int32{0, 1, 2}},
			{q: "/r[//e][a/f]", plain: []int32{0, 1, 2}},
			{q: "/r[//f][a/f]", plain: []int32{0, 1, 2}}, // one f may witness both
			{q: "/r[a//e][a//f]", plain: []int32{0, 1}},
			{q: "/r[//a][a/e]", plain: []int32{0, 1}}, // two a siblings
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := make([]*xmltree.Document, len(tc.docs))
			for i, d := range tc.docs {
				raw[i] = &xmltree.Document{ID: d.id, Root: d.root}
			}
			cons := everyConstructor(t, tc.docs, tc.cfg, defaultSchedule(len(tc.docs)), 0)
			for _, r := range tc.rows {
				verified := r.verified
				if verified == nil {
					verified = r.plain
				}
				if got := query.Eval(raw, query.MustParse(r.q)); !slices.Equal(got, verified) {
					t.Fatalf("tree-pattern match %s = %v, want %v", r.q, got, verified)
				}
				for _, c := range cons {
					plain, err := c.q.Query(r.q)
					exact, verr := c.q.QueryVerified(r.q)
					if err != nil || verr != nil || !slices.Equal(plain, r.plain) || !slices.Equal(exact, verified) {
						t.Fatalf("%s: %s = %v (%v), verified %v (%v); want %v, %v", c.name, r.q, plain, err, exact, verr, r.plain, verified)
					}
					if r.naive != nil && c.ix != nil {
						if naive, err := c.q.run(context.Background(), r.q, engine.QueryOptions{Naive: true}); err != nil || !slices.Equal(naive, r.naive) {
							t.Fatalf("%s: naive %s = %v (%v), want %v", c.name, r.q, naive, err, r.naive)
						}
					}
				}
			}
		})
	}
}
