package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"xseq"
	"xseq/internal/query"
	"xseq/internal/telemetry"
	"xseq/internal/xmltree"
)

// pattern is one pool entry with its oracle: the answer over the starting
// corpus as a count and an xor of ids, and which reserve documents match it
// (so answers stay checkable while dynamic_rw inserts them). The oracle comes
// from query.Eval, the brute-force tree matcher that shares no code with
// sequencing.
type pattern struct {
	Text  string  `json:"q"`
	Count int     `json:"count"`
	Xor   uint32  `json:"xor"`
	Ins   []int32 `json:"ins,omitempty"` // ascending reserve indexes that match

	req []byte // the prebuilt GET /query request
}

// Selectivity bands, as shares of the starting corpus. A selective pattern
// may match a handful of documents even in the smoke corpus.
const (
	selectiveShare = 0.002
	selectiveFloor = 5
	broadShare     = 0.02
	// The largest answer a scan pattern may have. Without a cap the single
	// heaviest pattern ("//site", every document) sets the workload's tail
	// and differs from seed to seed.
	broadCap       = 0.30
	mixedSelective = 0.005
	// The most popular mixed patterns are all selective: under Zipf(1.2) a
	// handful of ranks carry most draws, and a median that depends on
	// whether rank 3 happens to be a broad scan does not repeat across seeds.
	mixedHead = 32
)

// slotWant says what the pattern filling pool slot k must look like.
type slotWant struct {
	siblings, star, slash bool
	minCount, maxCount    int // oracle band over the starting corpus
	minNodes, maxNodes    int
	// work is the band of matching work the slot asks for: link probes of
	// the monolithic index per corpus document. A pattern's cost is set by
	// the structural class it falls in (a twig over /site/people probes a
	// thousandth of what one over two item/mail siblings does), and left to
	// chance the number of patterns a pool draws from the few heavy classes
	// differs by a third from seed to seed and moves every metric with it.
	// The zero band asks for nothing.
	work band
}

// band is a half-open interval [lo, hi); hi 0 means unbounded.
type band struct{ lo, hi float64 }

// miss is how far x lies outside the band, as a ratio in log space.
func (b band) miss(x float64) float64 {
	const floor = 1e-4 // link probes per document below this are all "none"
	x = math.Max(x, floor)
	switch {
	case x < b.lo:
		return math.Log(math.Max(b.lo, floor) / x)
	case b.hi != 0 && x >= b.hi:
		return math.Log(x / b.hi)
	}
	return 0
}

// Work bands, by letter, in link probes per corpus document. The edges sit in
// the gaps between the structural classes the generators produce, and the
// heaviest bands are capped: the one or two rarer classes above 'e' and 'v'
// are left out, since whether a pool of this size holds one of them or none
// would set its p99.
var workBands = map[byte]band{
	'a': {0, 0.3},
	'b': {0.3, 3},
	'c': {3, 10},
	'd': {10, 40},
	'e': {40, 70},
	'h': {0.3, 1}, // the popular head of the mixed pool: one middling class
	's': {0, 0.1}, // scan: the answer sits at the end of one path
	't': {0.1, 4},
	'u': {4, 15},
	'v': {15, 32},
}

// twigShape is the shape of twig slot k: every 5th branches over identical
// siblings, a quarter carry a '*' step, a quarter a '//' axis. The shape
// repeats every 20 slots.
type twigShape struct{ siblings, star, slash bool }

func shapeOf(k int) twigShape { return twigShape{k%5 == 0, k%4 == 1, k%4 == 2} }

// Work bands by slot. Each string is one cycle of slots of a kind, sorted by
// band, in the shares unconstrained draws of that kind give; scatter reads it
// with a stride coprime to its length, so every band gets exactly its share
// and is spread evenly through the pool. What a twig can probe depends on its
// shape: within 8 nodes only a '//' axis reaches the heaviest class
// (//item[mail/..][mail/..]), and sibling branches never probe little. 'e'
// comes to 2 % of the twig pool, twice its natural share, so that a p99 lands
// inside the class and not on its edge.
var (
	twigWork = map[twigShape]string{
		{}:                            "aaaaaaaaaaaabbbbcccd",
		{star: true}:                  "aaaaaaaaaaaabbbbcccd",
		{slash: true}:                 "aaaaaaaaaabbbbcccdde",
		{siblings: true}:              "bbbbbbcccc",
		{siblings: true, star: true}:  "bbbbbbcccc",
		{siblings: true, slash: true}: "bbcccdddee",
	}
	scanWork = "ssssssssssssssssttttttttuuuuuuvv"
)

func scatter(sorted string, i int) band { return workBands[sorted[i*7%len(sorted)]] }

// twigWorkAt is the work band of twig slot k: the slot's rank among the
// slots of its shape indexes the shape's cycle.
func twigWorkAt(k int) band {
	shape, perCycle, rank := shapeOf(k), 0, 0
	for p := 0; p < 20; p++ {
		if shapeOf(p) == shape {
			perCycle++
			if p < k%20 {
				rank++
			}
		}
	}
	return scatter(twigWork[shape], k/20*perCycle+rank)
}

func wantFor(pool string, k, records int) slotWant {
	selective := int(selectiveShare * float64(records))
	if selective < selectiveFloor {
		selective = selectiveFloor
	}
	broad := int(broadShare * float64(records))
	switch pool {
	case "twig":
		shape := shapeOf(k)
		return slotWant{siblings: shape.siblings, star: shape.star, slash: shape.slash,
			minCount: 1, maxCount: selective, minNodes: 4, maxNodes: 8,
			work: twigWorkAt(k)}
	case "scan":
		return slotWant{star: k%4 == 1, slash: true,
			minCount: broad, maxCount: int(broadCap * float64(records)), minNodes: 2, maxNodes: 3,
			work: scatter(scanWork, k)}
	default: // "mixed": half selective, a quarter broad, a quarter anything
		w := slotWant{star: k%8 == 1, slash: k%8 == 5, minCount: 1, maxCount: records, minNodes: 2, maxNodes: 6}
		band := k % 4
		if k < mixedHead {
			band = 0
			w.work = workBands['h']
		}
		switch band {
		case 0, 1:
			w.maxCount = int(mixedSelective * float64(records))
			if w.maxCount < selectiveFloor {
				w.maxCount = selectiveFloor
			}
		case 2:
			w.minCount = broad
		}
		return w
	}
}

// attemptsPerSlot bounds the candidates drawn for one slot before set-up
// fails: a band that cannot be filled is a benchmark bug, not a reason to
// measure something else.
const attemptsPerSlot = 3000

// workTries is how many candidates that fit a slot in every other respect are
// tried for its work band.
const workTries = 128

// buildPool fills size slots deterministically from the seed. screen is an
// index over every document a pattern will ever be asked about (corpus plus
// reserve, where the workload inserts the reserve); it is used twice: to discard out-of-band candidates cheaply, and
// to discard patterns on which the index's designator-level value matching
// (hash buckets) differs from exact matching, since those have no single
// right answer. The recorded oracle is always query.Eval's.
func buildPool(pool string, size int, seed int64, c *corpus, screen *xseq.Index, withReserve bool) ([]pattern, error) {
	f := filler{pool: pool, c: c, screen: screen, total: len(c.docs), docValues: indexValues(c.docs)}
	if withReserve {
		f.reserve, f.total = c.reserve, len(c.docs)+len(c.reserve)
		f.reserveValues = indexValues(c.reserve)
	}
	out := make([]pattern, size)
	rngs := make([]*rand.Rand, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k := 0; k < size; k++ {
		rngs[k] = rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ uint64(k+1)*0x9e3779b97f4a7c15))))
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[k], errs[k] = f.fill(k, rngs[k], nil)
		}(k)
	}
	wg.Wait()
	// Slots are filled independently (so the pool does not depend on
	// scheduling); a later slot that repeats an earlier pattern is redrawn
	// from its own generator until it is distinct.
	taken := map[string]bool{}
	for k := 0; k < size; k++ {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if taken[out[k].Text] {
			p, err := f.fill(k, rngs[k], taken)
			if err != nil {
				return nil, err
			}
			out[k] = p
		}
		taken[out[k].Text] = true
	}
	for k := range out {
		out[k].req = queryRequest(out[k].Text)
	}
	return out, nil
}

// filler draws candidates for one pool. reserve is the part of the corpus's
// reserve the screen index covers: all of it where the workload inserts it,
// none otherwise. total is the number of documents the screen covers.
type filler struct {
	pool    string
	c       *corpus
	screen  *xseq.Index
	reserve []*xmltree.Document
	total   int
	// Which documents hold which value, so that the oracle need only try
	// the documents that can match.
	docValues, reserveValues valueIndex
}

func (f *filler) fill(k int, rng *rand.Rand, taken map[string]bool) (pattern, error) {
	pool, c, screen, total := f.pool, f.c, f.screen, f.total
	want := wantFor(pool, k, len(c.docs))
	var (
		nearest     pattern
		nearestMiss float64
		fitting     int
	)
	for attempt := 0; attempt < attemptsPerSlot; attempt++ {
		doc := c.docs[rng.Intn(len(c.docs))]
		pat := candidate(pool, rng, doc.Root, want)
		if pat == nil {
			continue
		}
		if n := pat.Size(); n < want.minNodes || n > want.maxNodes {
			continue
		}
		text := pat.String()
		if taken[text] {
			continue
		}
		// The text is what the server receives; it must parse back to the
		// same pattern.
		parsed, err := query.Parse(text)
		if err != nil || parsed.String() != text {
			continue
		}
		tt := telemetry.GetTrace()
		got, err := screen.QueryContext(telemetry.WithTrace(context.Background(), tt), text)
		work := float64(tt.LinkProbes()) / float64(total)
		telemetry.PutTrace(tt)
		if err != nil {
			continue
		}
		// The screen covers corpus + reserve, so scale the band before the
		// exact check below.
		if len(got) < want.minCount || len(got) > want.maxCount*total/len(c.docs)+1 {
			continue
		}
		base := eval(c.docs, f.docValues, parsed)
		if len(base) < want.minCount || len(base) > want.maxCount {
			continue
		}
		ins := eval(f.reserve, f.reserveValues, parsed)
		if len(base)+len(ins) != len(got) {
			continue // value-hash collision: index and exact answers differ
		}
		p := pattern{Text: text, Count: len(base)}
		for _, id := range base {
			p.Xor ^= uint32(id)
		}
		for _, id := range ins {
			p.Ins = append(p.Ins, id-c.baseN())
		}
		// The work band is the one soft demand: a slot settles for the
		// nearest of workTries fitting candidates, because how many patterns
		// of a class a corpus offers is the generator's business and a run
		// must not fail over it.
		miss := want.work.miss(work)
		if miss == 0 {
			return p, nil
		}
		if fitting++; fitting == 1 || miss < nearestMiss {
			nearest, nearestMiss = p, miss
		}
		if fitting == workTries {
			return nearest, nil
		}
	}
	if fitting > 0 {
		return nearest, nil
	}
	return pattern{}, fmt.Errorf("pool %s: slot %d (%+v) not filled after %d candidates", pool, k, want, attemptsPerSlot)
}

// valueIndex maps a value to the ascending positions of the documents that
// contain it as a value leaf.
type valueIndex map[string][]int32

func indexValues(docs []*xmltree.Document) valueIndex {
	vi := valueIndex{}
	for i, d := range docs {
		d.Root.Walk(func(n *xmltree.Node) bool {
			if n.IsValue {
				if l := vi[n.Value]; len(l) == 0 || l[len(l)-1] != int32(i) {
					vi[n.Value] = append(l, int32(i))
				}
			}
			return true
		})
	}
	return vi
}

// eval is query.Eval restricted to the documents that can match: a document
// matches only if it holds every value the pattern tests for equality, so the
// brute-force matcher runs over the shortest such posting list, and over
// every document when the pattern tests no value.
func eval(docs []*xmltree.Document, vi valueIndex, p *query.Pattern) []int32 {
	var shortest []int32
	found := false
	var walk func(n *query.PNode)
	walk = func(n *query.PNode) {
		if n.IsValue && !n.Prefix {
			if l := vi[n.Value]; !found || len(l) < len(shortest) {
				shortest, found = l, true
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	if !found {
		return query.Eval(docs, p)
	}
	var out []int32
	for _, i := range shortest {
		if p.MatchesTree(docs[i].Root) {
			out = append(out, docs[i].ID)
		}
	}
	return out
}

// chain is the path from a document root to one of its nodes.
type chain []*xmltree.Node

// leafChains returns the chain to every value leaf, in document order.
func leafChains(root *xmltree.Node) []chain {
	var out []chain
	var walk func(n *xmltree.Node, prefix chain)
	walk = func(n *xmltree.Node, prefix chain) {
		cur := append(prefix[:len(prefix):len(prefix)], n)
		if n.IsValue {
			out = append(out, cur)
			return
		}
		for _, ch := range n.Children {
			walk(ch, cur)
		}
	}
	walk(root, nil)
	return out
}

// candidate extracts a pattern from one document: the union of one or two
// root-to-leaf chains, then rewritten with a '//' axis and a '*' step as the
// slot demands. nil means this document offers nothing suitable.
func candidate(pool string, rng *rand.Rand, root *xmltree.Node, want slotWant) *query.Pattern {
	leaves := leafChains(root)
	if len(leaves) == 0 || !validValues(leaves) {
		return nil
	}
	var picked []chain
	switch {
	case want.siblings:
		a, b, ok := siblingPair(rng, leaves)
		if !ok {
			return nil
		}
		picked = []chain{a, b}
	case pool == "scan":
		// Short suffixes of one chain; half the time structural only.
		ch := leaves[rng.Intn(len(leaves))]
		if rng.Intn(2) == 0 {
			ch = ch[:len(ch)-1]
		}
		n := want.minNodes + rng.Intn(want.maxNodes-want.minNodes+1)
		if n > len(ch) {
			n = len(ch)
		}
		return suffixPattern(rng, ch, n, want.star)
	default:
		picked = []chain{leaves[rng.Intn(len(leaves))]}
		if rng.Intn(2) == 0 {
			picked = append(picked, leaves[rng.Intn(len(leaves))])
		}
		if pool == "mixed" && rng.Intn(3) == 0 {
			// A structural branch: drop one chain's value.
			last := len(picked) - 1
			picked[last] = picked[last][:len(picked[last])-1]
		}
	}
	return unionPattern(rng, picked, want)
}

// validValues rejects documents whose values the query syntax cannot quote.
func validValues(leaves []chain) bool {
	for _, ch := range leaves {
		v := ch[len(ch)-1].Value
		if v == "" {
			return false
		}
		for i := 0; i < len(v); i++ {
			if c := v[i]; c == '\'' || c == '*' || c < 0x20 || c > 0x7e {
				return false
			}
		}
	}
	return true
}

// siblingPair picks two leaf chains that diverge at identical siblings: the
// same parent, two different children with the same name.
func siblingPair(rng *rand.Rand, leaves []chain) (a, b chain, ok bool) {
	type pair struct{ i, j int }
	var pairs []pair
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			d := divergence(leaves[i], leaves[j])
			if d > 0 && d < len(leaves[i]) && d < len(leaves[j]) &&
				!leaves[i][d].IsValue && leaves[i][d].Name == leaves[j][d].Name {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, nil, false
	}
	p := pairs[rng.Intn(len(pairs))]
	return leaves[p.i], leaves[p.j], true
}

// divergence is the index of the first node at which two chains differ.
func divergence(a, b chain) int {
	d := 0
	for d < len(a) && d < len(b) && a[d] == b[d] {
		d++
	}
	return d
}

// unionPattern merges the chains into one pattern tree (shared document
// nodes become shared pattern nodes), then applies the slot's rewrites.
func unionPattern(rng *rand.Rand, chains []chain, want slotWant) *query.Pattern {
	nodes := map[*xmltree.Node]*query.PNode{}
	var rootP *query.PNode
	for _, ch := range chains {
		var parent *query.PNode
		for _, n := range ch {
			p, seen := nodes[n]
			if !seen {
				p = &query.PNode{Axis: query.AxisChild, Name: n.Name, IsValue: n.IsValue, Value: n.Value}
				nodes[n] = p
				if parent == nil {
					rootP = p
				} else {
					parent.Children = append(parent.Children, p)
				}
			}
			parent = p
		}
	}
	// The trunk is the run of single-child element nodes from the root.
	var trunk []*query.PNode
	for n := rootP; n != nil && !n.IsValue; {
		trunk = append(trunk, n)
		if len(n.Children) != 1 {
			break
		}
		n = n.Children[0]
	}
	if want.slash && len(trunk) >= 2 {
		// Splice trunk nodes out above a cut point: "//X..." drops the
		// whole prefix, "/root//X..." keeps the root.
		cut := 1 + rng.Intn(len(trunk)-1)
		trunk[cut].Axis = query.AxisDescendant
		if cut >= 2 && rng.Intn(2) == 0 {
			trunk[0].Children = []*query.PNode{trunk[cut]}
		} else {
			rootP = trunk[cut]
		}
	} else if want.slash {
		rootP.Axis = query.AxisDescendant
	}
	if want.star {
		var elems []*query.PNode
		var walk func(n *query.PNode)
		walk = func(n *query.PNode) {
			if n != rootP && !n.IsValue {
				elems = append(elems, n)
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(rootP)
		if len(elems) == 0 {
			return nil
		}
		e := elems[rng.Intn(len(elems))]
		e.Wildcard, e.Name = true, ""
	}
	return &query.Pattern{Root: rootP}
}

// suffixPattern is the last n nodes of a chain as a path pattern anchored
// with '//'.
func suffixPattern(rng *rand.Rand, ch chain, n int, star bool) *query.Pattern {
	ch = ch[len(ch)-n:]
	var rootP, parent *query.PNode
	for _, d := range ch {
		p := &query.PNode{Axis: query.AxisChild, Name: d.Name, IsValue: d.IsValue, Value: d.Value}
		if parent == nil {
			rootP = p
		} else {
			parent.Children = append(parent.Children, p)
		}
		parent = p
	}
	if rootP.IsValue {
		return nil
	}
	rootP.Axis = query.AxisDescendant
	if star {
		// Any element step may become the '*', the value never.
		elems := len(ch)
		if ch[len(ch)-1].IsValue {
			elems--
		}
		p := rootP
		for i := rng.Intn(elems); i > 0; i-- {
			p = p.Children[0]
		}
		p.Wildcard, p.Name = true, ""
	}
	return &query.Pattern{Root: rootP}
}

// splitmix is the splitmix64 finaliser: a seedable, stateless hash the op
// sequence and the slot generators are derived from.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
