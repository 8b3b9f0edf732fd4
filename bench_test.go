package xseq

// Benchmarks: one per table and figure of the paper's evaluation (driving
// the internal/bench experiment runners at a reduced scale), plus
// micro-benchmarks of the core operations (sequencing, insertion, matching).
// Full-size, paper-shaped runs come from cmd/xseqbench; EXPERIMENTS.md
// records them.

import (
	"fmt"
	"testing"

	"xseq/internal/bench"
	"xseq/internal/datagen"
	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/trie"
	"xseq/internal/xmltree"
)

func benchConfig() bench.Config {
	return bench.Config{Scale: 0.005, Seed: 42, Queries: 10}
}

func runExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkFigure14a(b *testing.B)   { runExperiment(b, "fig14a") }
func BenchmarkFigure14b(b *testing.B)   { runExperiment(b, "fig14b") }
func BenchmarkFigure15(b *testing.B)    { runExperiment(b, "fig15") }
func BenchmarkTable5(b *testing.B)      { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)      { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)      { runExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)      { runExperiment(b, "table8") }
func BenchmarkFigure16a(b *testing.B)   { runExperiment(b, "fig16a") }
func BenchmarkFigure16b(b *testing.B)   { runExperiment(b, "fig16b") }
func BenchmarkFigure16c(b *testing.B)   { runExperiment(b, "fig16c") }
func BenchmarkFigure16d(b *testing.B)   { runExperiment(b, "fig16d") }
func BenchmarkCompression(b *testing.B) { runExperiment(b, "compression") }

func BenchmarkAblationPool(b *testing.B)       { runExperiment(b, "ablation-pool") }
func BenchmarkAblationValueSpace(b *testing.B) { runExperiment(b, "ablation-valuespace") }
func BenchmarkAblationBuild(b *testing.B)      { runExperiment(b, "ablation-build") }
func BenchmarkAblationBlocking(b *testing.B)   { runExperiment(b, "ablation-blocking") }

// --- micro-benchmarks ------------------------------------------------------

func synthCorpus(b *testing.B, n int) (*schema.Schema, []*xmltree.Document) {
	b.Helper()
	sch, docs, err := datagen.Synth(datagen.SynthParams{L: 3, F: 5, A: 25, I: 10, P: 40, Seed: 1}, n)
	if err != nil {
		b.Fatal(err)
	}
	return sch, docs
}

func BenchmarkSequenceDepthFirst(b *testing.B) {
	_, docs := synthCorpus(b, 1000)
	enc := pathenc.NewEncoder(0)
	st := sequence.DepthFirst{Enc: enc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sequence(docs[i%len(docs)].Root)
	}
}

func BenchmarkSequenceGBest(b *testing.B) {
	sch, docs := synthCorpus(b, 1000)
	enc := pathenc.NewEncoder(0)
	st := sequence.NewProbability(sch, enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sequence(docs[i%len(docs)].Root)
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	sch, docs := synthCorpus(b, 1000)
	enc := pathenc.NewEncoder(0)
	st := sequence.NewProbability(sch, enc)
	seqs := make([]sequence.Sequence, len(docs))
	for i, d := range docs {
		seqs[i] = st.Sequence(d.Root)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tr := trie.New()
	for i := 0; i < b.N; i++ {
		tr.Insert(seqs[i%len(seqs)], int32(i))
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	sch, docs := synthCorpus(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := pathenc.NewEncoder(0)
		st := sequence.NewProbability(sch, enc)
		if _, err := index.Build(docs, index.Options{Encoder: enc, Strategy: st}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstraintQuery(b *testing.B) {
	sch, docs := synthCorpus(b, 5000)
	enc := pathenc.NewEncoder(0)
	st := sequence.NewProbability(sch, enc)
	ix, err := index.Build(docs, index.Options{Encoder: enc, Strategy: st})
	if err != nil {
		b.Fatal(err)
	}
	// A fixed mid-size branching pattern extracted from the corpus shape.
	var pat *query.Pattern
	for _, d := range docs {
		if d.Root.Size() >= 6 {
			pat = patternOfSize(d.Root, 6)
			if pat != nil {
				break
			}
		}
	}
	if pat == nil {
		b.Fatal("no pattern source found")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(pat); err != nil {
			b.Fatal(err)
		}
	}
}

// patternOfSize takes the first k nodes of a pre-order walk as a pattern.
func patternOfSize(root *xmltree.Node, k int) *query.Pattern {
	count := 0
	var build func(n *xmltree.Node) *xmltree.Node
	build = func(n *xmltree.Node) *xmltree.Node {
		if count >= k {
			return nil
		}
		count++
		cp := &xmltree.Node{Name: n.Name, Value: n.Value, IsValue: n.IsValue}
		for _, c := range n.Children {
			if sub := build(c); sub != nil {
				cp.Children = append(cp.Children, sub)
			}
		}
		return cp
	}
	tree := build(root)
	if tree == nil || count < k {
		return nil
	}
	return query.FromTree(tree)
}

func BenchmarkTextValueQuery(b *testing.B) {
	var docs []*Document
	cities := []string{"boston", "bologna", "berlin", "newyork", "nairobi", "napoli"}
	for i := 0; i < 600; i++ {
		d, err := ParseDocumentString(int32(i), fmt.Sprintf(
			"<rec><city>%s</city><n>%d</n></rec>", cities[i%len(cities)], i))
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, d)
	}
	ix, err := Build(docs, Config{TextValues: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query("/rec/city[text='bo*']"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeEndToEnd(b *testing.B) {
	var docs []*Document
	for i := 0; i < 200; i++ {
		d, err := ParseDocumentString(int32(i), fmt.Sprintf(
			"<rec><title>t%d</title><author>a%d</author><year>%d</year></rec>",
			i, i%17, 1990+i%30))
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, d)
	}
	ix, err := Build(docs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query("/rec/author[text='a3']"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- allocation benchmarks -------------------------------------------------
//
// One benchmark per engine layout over the same corpus and query, with
// ReportAllocs, so `go test -bench BenchmarkQueryAllocs -benchmem` shows the
// steady-state allocation profile side by side; CI runs them as a smoke
// step. The regression *assertions* live in alloc_test.go (AllocsPerRun).

func benchQueryAllocs(b *testing.B, q string, query func(string) ([]int32, error)) {
	b.Helper()
	if _, err := query(q); err != nil { // warm the scratch pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryAllocsMono(b *testing.B) {
	ix, err := Build(allocDocs(b, 200), Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchQueryAllocs(b, "//n2", ix.Query)
}

func BenchmarkQueryAllocsSharded(b *testing.B) {
	ix, err := Build(allocDocs(b, 200), Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	benchQueryAllocs(b, "//n2", ix.Query)
}

func BenchmarkQueryAllocsDynamic(b *testing.B) {
	ix, err := BuildDynamic(allocDocs(b, 200), Config{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchQueryAllocs(b, "//n2", ix.Query)
}

func BenchmarkQueryAllocsFlat(b *testing.B) {
	ix, err := Build(allocDocs(b, 200), Config{Layout: LayoutFlat})
	if err != nil {
		b.Fatal(err)
	}
	benchQueryAllocs(b, "//n2", ix.Query)
}
