package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

// trieNodeCount sequences the corpus with a strategy and returns the trie
// node count — the y-axis of Figures 14/15 and the DF/CS columns of
// Tables 5/6.
func trieNodeCount(docs []*xmltree.Document, st sequence.Strategy) int {
	tr := trie.New()
	for _, d := range docs {
		tr.Insert(st.Sequence(d.Root), d.ID)
	}
	return tr.NumNodes()
}

// strategySet builds the four strategies of Figure 14 over one encoder.
func strategySet(sch *schema.Schema, enc *pathenc.Encoder, seed int64) []sequence.Strategy {
	return []sequence.Strategy{
		sequence.NewRandom(enc, seed),
		sequence.BreadthFirst{Enc: enc},
		sequence.DepthFirst{Enc: enc},
		sequence.NewProbability(sch, enc),
	}
}

// buildCSIndex builds the constraint-sequencing index used by the query
// experiments.
func buildCSIndex(docs []*xmltree.Document, sch *schema.Schema) (*index.Index, *pathenc.Encoder, error) {
	enc := pathenc.NewEncoder(0)
	cs := sequence.NewProbability(sch, enc)
	ix, err := index.Build(docs, index.Options{Encoder: enc, Strategy: cs})
	if err != nil {
		return nil, nil, err
	}
	return ix, enc, nil
}

// corpusNodes counts XML nodes across the corpus (the "Nodes" column of
// Tables 5/6).
func corpusNodes(docs []*xmltree.Document) int {
	total := 0
	for _, d := range docs {
		total += d.Root.Size()
	}
	return total
}

// extractPattern samples a connected sub-pattern of exactly k nodes from a
// document (root included), biased toward including value leaves so the
// resulting queries are selective like the paper's. Returns nil when the
// document has fewer than k nodes.
func extractPattern(rng *rand.Rand, root *xmltree.Node, k int) *query.Pattern {
	if root.Size() < k {
		return nil
	}
	type cand struct {
		node   *xmltree.Node
		parent *xmltree.Node
	}
	chosen := map[*xmltree.Node]bool{root: true}
	var frontier []cand
	for _, c := range root.Children {
		frontier = append(frontier, cand{c, root})
	}
	for len(chosen) < k && len(frontier) > 0 {
		// Prefer value leaves half the time to keep queries selective.
		pick := -1
		if rng.Intn(2) == 0 {
			for i, f := range frontier {
				if f.node.IsValue {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			pick = rng.Intn(len(frontier))
		}
		f := frontier[pick]
		frontier = append(frontier[:pick], frontier[pick+1:]...)
		chosen[f.node] = true
		for _, c := range f.node.Children {
			frontier = append(frontier, cand{c, f.node})
		}
	}
	if len(chosen) < k {
		return nil
	}
	var build func(n *xmltree.Node) *xmltree.Node
	build = func(n *xmltree.Node) *xmltree.Node {
		cp := &xmltree.Node{Name: n.Name, Value: n.Value, IsValue: n.IsValue}
		for _, c := range n.Children {
			if chosen[c] {
				cp.Children = append(cp.Children, build(c))
			}
		}
		return cp
	}
	return query.FromTree(build(root))
}

// randomQueries extracts n patterns of the given size from random corpus
// documents; documents too small are skipped (retries bounded).
func randomQueries(rng *rand.Rand, docs []*xmltree.Document, size, n int) []*query.Pattern {
	var out []*query.Pattern
	for tries := 0; len(out) < n && tries < n*50; tries++ {
		d := docs[rng.Intn(len(docs))]
		if p := extractPattern(rng, d.Root, size); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// timeQueries runs fn once per query and returns the total elapsed time
// and the total result count. ctx is polled between queries so a deadline
// (xseqbench -timeout) aborts the measurement loop.
func timeQueries(ctx context.Context, pats []*query.Pattern, fn func(*query.Pattern) ([]int32, error)) (time.Duration, int, error) {
	start := time.Now()
	results := 0
	for _, p := range pats {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		ids, err := fn(p)
		if err != nil {
			return 0, 0, fmt.Errorf("query %s: %w", p, err)
		}
		results += len(ids)
	}
	return time.Since(start), results, nil
}

// perQuery divides a total duration by the query count.
func perQuery(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
