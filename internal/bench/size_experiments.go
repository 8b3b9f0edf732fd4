package bench

import (
	"fmt"

	"xseq/internal/datagen"
	"xseq/internal/pathenc"
	"xseq/internal/sequence"
	"xseq/internal/trie"
)

// Figure14a reproduces Figure 14(a): index node counts for random,
// breadth-first, depth-first and probability-based constraint sequencing
// over dataset L3F5A25I0P40 as the document count grows.
func Figure14a(cfg Config) ([]*Table, error) {
	// The seed offsets select random DTDs whose average sequence lengths
	// match the paper's (~25 here, ~32 for 14b); DTD generation has high
	// variance in document size.
	return figure14(cfg, "fig14a", datagen.SynthParams{L: 3, F: 5, A: 25, I: 0, P: 40, Seed: cfg.Seed + 1000})
}

// Figure14b reproduces Figure 14(b) on L5F3A40I0P5, the longer-sequence
// family.
func Figure14b(cfg Config) ([]*Table, error) {
	return figure14(cfg, "fig14b", datagen.SynthParams{L: 5, F: 3, A: 40, I: 0, P: 5, Seed: cfg.Seed + 2000})
}

func figure14(cfg Config, id string, params datagen.SynthParams) ([]*Table, error) {
	// Paper x-axis: 0.5M .. 2.5M documents.
	paperSizes := []int{500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000}
	sizes := make([]int, len(paperSizes))
	for i, s := range paperSizes {
		sizes[i] = cfg.scaled(s, 200*(i+1))
	}
	sch, docs, err := datagen.Synth(params, sizes[len(sizes)-1])
	if err != nil {
		return nil, err
	}
	enc := pathenc.NewEncoder(0)
	strategies := strategySet(sch, enc, cfg.Seed+1)

	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("Index size (trie nodes) on %s", params.Name()),
		Note: fmt.Sprintf("avg sequence length %.1f; paper shape: random >> breadth-first ≈ depth-first >> constraint",
			datagen.AvgSequenceLength(docs)),
		Header: []string{"docs", "random", "breadth-first", "depth-first", "constraint"},
	}
	// Pre-sequence the full corpus once per strategy, then count nodes for
	// each prefix with fresh tries.
	seqs := make([][]sequence.Sequence, len(strategies))
	for si, st := range strategies {
		seqs[si] = make([]sequence.Sequence, len(docs))
		for di, d := range docs {
			if di%256 == 0 {
				if err := cfg.poll(); err != nil {
					return nil, err
				}
			}
			seqs[si][di] = st.Sequence(d.Root)
		}
	}
	for _, n := range sizes {
		if err := cfg.poll(); err != nil {
			return nil, err
		}
		row := []interface{}{n}
		for si := range strategies {
			tr := trie.New()
			for di := 0; di < n; di++ {
				tr.Insert(seqs[si][di], docs[di].ID)
			}
			row = append(row, tr.NumNodes())
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure15 reproduces Figure 15: index size for depth-first vs constraint
// sequencing as the identical-sibling percentage I sweeps 0% → 100% on
// L3F5A25I?P40. As I grows the ordering freedom shrinks and CS degrades
// toward DF, remaining below it because values still order by probability.
func Figure15(cfg Config) ([]*Table, error) {
	nDocs := cfg.scaled(500_000, 1_000)
	t := &Table{
		ID:     "fig15",
		Title:  "Impact of identical sibling nodes on index size (L3F5A25I?P40)",
		Note:   fmt.Sprintf("%d documents per point; paper shape: CS ≤ DF, converging as I→100%%", nDocs),
		Header: []string{"I%", "depth-first", "constraint", "CS/DF"},
	}
	for i := 0; i <= 100; i += 20 {
		if err := cfg.poll(); err != nil {
			return nil, err
		}
		params := datagen.SynthParams{L: 3, F: 5, A: 25, I: i, P: 40, Seed: cfg.Seed}
		sch, docs, err := datagen.Synth(params, nDocs)
		if err != nil {
			return nil, err
		}
		enc := pathenc.NewEncoder(0)
		strategies := strategySet(sch, enc, cfg.Seed+1)
		df := trieNodeCount(docs, strategies[2])
		cs := trieNodeCount(docs, strategies[3])
		t.AddRow(i, df, cs, float64(cs)/float64(df))
	}
	return []*Table{t}, nil
}

// Table5 reproduces Table 5: XMark index sizes (records, XML nodes, DF trie
// nodes, CS trie nodes) with identical sibling nodes.
func Table5(cfg Config) ([]*Table, error) {
	return xmarkSizeTable(cfg, "table5", true,
		[]int{41_666, 50_000, 58_333, 75_000, 83_333})
}

// Table6 reproduces Table 6: the same without identical sibling nodes.
func Table6(cfg Config) ([]*Table, error) {
	return xmarkSizeTable(cfg, "table6", false,
		[]int{20_000, 30_000, 40_000, 50_000, 65_250})
}

func xmarkSizeTable(cfg Config, id string, identical bool, paperRecords []int) ([]*Table, error) {
	sizes := make([]int, len(paperRecords))
	for i, s := range paperRecords {
		sizes[i] = cfg.scaled(s, 100*(i+1))
	}
	maxN := sizes[len(sizes)-1]
	sch, docs, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: identical, Seed: cfg.Seed}, maxN)
	if err != nil {
		return nil, err
	}
	kind := "with"
	if !identical {
		kind = "without"
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("XMark index size %s identical sibling nodes", kind),
		Note:   "paper shape: CS roughly half the DF node count at every size",
		Header: []string{"records", "nodes", "DF", "CS", "CS/DF"},
	}
	enc := pathenc.NewEncoder(0)
	strategies := strategySet(sch, enc, cfg.Seed+1)
	dfSeqs := make([]sequence.Sequence, len(docs))
	csSeqs := make([]sequence.Sequence, len(docs))
	for i, d := range docs {
		if i%256 == 0 {
			if err := cfg.poll(); err != nil {
				return nil, err
			}
		}
		dfSeqs[i] = strategies[2].Sequence(d.Root)
		csSeqs[i] = strategies[3].Sequence(d.Root)
	}
	for _, n := range sizes {
		if err := cfg.poll(); err != nil {
			return nil, err
		}
		dfTrie, csTrie := trie.New(), trie.New()
		nodes := 0
		for i := 0; i < n; i++ {
			dfTrie.Insert(dfSeqs[i], docs[i].ID)
			csTrie.Insert(csSeqs[i], docs[i].ID)
			nodes += docs[i].Root.Size()
		}
		df, cs := dfTrie.NumNodes(), csTrie.NumNodes()
		t.AddRow(n, nodes, df, cs, float64(cs)/float64(df))
	}
	return []*Table{t}, nil
}

// CompressionRatios reproduces the Section 6.2 observation: the index-size
// to compressed-data-size ratio is about 1:1 for probability-based
// constraint sequencing and 3-6:1 for random sequencing.
func CompressionRatios(cfg Config) ([]*Table, error) {
	params := datagen.SynthParams{L: 3, F: 5, A: 25, I: 0, P: 40, Seed: cfg.Seed}
	nDocs := cfg.scaled(1_000_000, 2_000)
	sch, docs, err := datagen.Synth(params, nDocs)
	if err != nil {
		return nil, err
	}
	enc := pathenc.NewEncoder(0)
	strategies := strategySet(sch, enc, cfg.Seed+1)
	// A compressed document stores roughly one two-byte designator per
	// node (Section 6.2 calls each sequence "a compressed XML document");
	// the index costs 4n + 8N bytes against that.
	const bytesPerElement = 2
	dataBytes := int64(0)
	for _, d := range docs {
		dataBytes += int64(d.Root.Size()) * bytesPerElement
	}
	t := &Table{
		ID:     "compression",
		Title:  "Index size to compressed data size ratio",
		Note:   fmt.Sprintf("%d documents, data bytes %d; paper: ≈1:1 for CS, 3-6:1 for random", nDocs, dataBytes),
		Header: []string{"strategy", "trie nodes", "index bytes (4n+8N)", "ratio"},
	}
	for _, st := range strategies {
		if err := cfg.poll(); err != nil {
			return nil, err
		}
		nodes := trieNodeCount(docs, st)
		indexBytes := 4*int64(nDocs) + 8*int64(nodes)
		t.AddRow(st.Name(), nodes, indexBytes, float64(indexBytes)/float64(dataBytes))
	}
	return []*Table{t}, nil
}
