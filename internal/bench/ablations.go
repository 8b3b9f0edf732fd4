package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/index"
	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/xmltree"
)

func schemaInfer(roots []*xmltree.Node) (*schema.Schema, error) {
	return schema.Infer(roots)
}

// Ablations: not paper figures, but measurements of the design choices the
// implementation makes (DESIGN.md section 5) — buffer-pool sizing, value
// hash-space sizing, the build paths (incremental vs bulk load vs dynamic
// insert+compact), and repeat-path vs per-instance blocking.

// AblationPool sweeps the buffer-pool capacity for a fixed query workload,
// showing where the working set fits (disk accesses flatten).
func AblationPool(cfg Config) ([]*Table, error) {
	n := cfg.scaled(100_000, 2_000)
	params := datagen.SynthParams{L: 3, F: 5, A: 25, I: 10, P: 40, Seed: cfg.Seed}
	sch, docs, err := datagen.Synth(params, n)
	if err != nil {
		return nil, err
	}
	ix, _, err := buildCSIndex(docs, sch)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	pats := randomQueries(rng, docs, 6, cfg.queries())
	t := &Table{
		ID:     "ablation-pool",
		Title:  fmt.Sprintf("Disk accesses vs buffer-pool pages (%d records, %d queries, warm pool)", n, len(pats)),
		Note:   "expected: misses fall as the pool grows, then flatten once the working set is resident",
		Header: []string{"pool pages", "disk accesses", "hit ratio"},
	}
	for _, pages := range []int{16, 32, 64, 128, 256, 512, 1024} {
		pool := pager.NewPool(pages)
		if _, err := ix.AttachPager(pool); err != nil {
			return nil, err
		}
		// Warm-pool measurement: one pass to warm, one measured pass.
		for _, p := range pats {
			if _, err := ix.QueryContext(cfg.ctx(), p); err != nil {
				return nil, err
			}
		}
		ix.ResetPagerStats()
		for _, p := range pats {
			if _, err := ix.QueryContext(cfg.ctx(), p); err != nil {
				return nil, err
			}
		}
		s := ix.PagerStats()
		t.AddRow(pages, s.DiskAccesses(), s.HitRatio())
		ix.DetachPager()
	}
	return []*Table{t}, nil
}

// AblationValueSpace sweeps the atomic value hash space, measuring the
// false positives hash-bucket collisions introduce (answers vs verified
// answers) — the cost of the paper's h(value) representation.
func AblationValueSpace(cfg Config) ([]*Table, error) {
	n := cfg.scaled(200_000, 4_000)
	sch, docs, err := datagen.DBLP(datagen.DBLPOptions{Seed: cfg.Seed}, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 32))
	t := &Table{
		ID:     "ablation-valuespace",
		Title:  fmt.Sprintf("Value hash-space size vs collision false positives (%d records)", n),
		Note:   "designator-level answers minus verified answers = hash-collision false positives",
		Header: []string{"value space", "answers", "verified", "false positives"},
	}
	// A workload of selective value queries.
	var queries []string
	for i := 0; i < 15; i++ {
		queries = append(queries, fmt.Sprintf("//author[text='author%d']", 10+rng.Intn(500)))
	}
	for _, space := range []int{16, 64, 256, 1000, 1 << 14, 1 << 20} {
		enc := pathenc.NewEncoder(space)
		st := sequence.NewProbability(sch, enc)
		ix, err := index.Build(docs, index.Options{Encoder: enc, Strategy: st, KeepDocuments: true})
		if err != nil {
			return nil, err
		}
		answers, verified := 0, 0
		for _, q := range queries {
			pat, err := query.Parse(q)
			if err != nil {
				return nil, err
			}
			ids, err := ix.QueryContext(cfg.ctx(), pat)
			if err != nil {
				return nil, err
			}
			answers += len(ids)
			vids, err := ix.QueryWithContext(cfg.ctx(), pat, index.QueryOptions{Verify: true})
			if err != nil {
				return nil, err
			}
			verified += len(vids)
		}
		t.AddRow(space, answers, verified, answers-verified)
	}
	return []*Table{t}, nil
}

// AblationBlocking quantifies the library's one deliberate deviation from
// the paper (EXPERIMENTS.md "documented deviations"): corpus repeat-path
// blocking versus the paper's literal per-instance blocking. Per-instance
// blocking gives sequences more ordering freedom (smaller index — the
// paper's Table 5 ratio), but on corpora mixing multiplicities it makes
// query order incompatible with some documents' data order, and recall
// drops below 1.
func AblationBlocking(cfg Config) ([]*Table, error) {
	n := cfg.scaled(50_000, 2_000)
	// A family dense in repeatable paths whose multiplicity varies across
	// documents — the configuration where per-instance blocking breaks
	// query-order compatibility.
	params := datagen.SynthParams{L: 3, F: 4, A: 30, I: 50, P: 40, Seed: cfg.Seed}
	_, docs, err := datagen.Synth(params, n)
	if err != nil {
		return nil, err
	}
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	infSchema, err := schemaInfer(roots)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 34))
	pats := randomQueries(rng, docs, 6, cfg.queries()*4)
	t := &Table{
		ID:    "ablation-blocking",
		Title: fmt.Sprintf("Repeat-path vs per-instance blocking (%d %s records, %d queries)", n, params.Name(), len(pats)),
		Note: "recall = answers / ground-truth answers; per-instance blocking is the paper's literal " +
			"Algorithm 2 and is smaller but incomplete on mixed-multiplicity corpora",
		Header: []string{"blocking", "trie nodes", "answers", "truth", "recall"},
	}
	for _, perInstance := range []bool{false, true} {
		enc := pathenc.NewEncoder(1 << 20)
		st := sequence.NewProbability(infSchema, enc)
		st.PerInstanceBlocking = perInstance
		ix, err := index.Build(docs, index.Options{Encoder: enc, Strategy: st})
		if err != nil {
			return nil, err
		}
		answers, truth := 0, 0
		for _, p := range pats {
			ids, err := ix.QueryContext(cfg.ctx(), p)
			if err != nil {
				return nil, err
			}
			answers += len(ids)
			truth += len(groundTruthIDs(docs, p, enc))
		}
		name := "repeat-path (ours)"
		if perInstance {
			name = "per-instance (paper)"
		}
		recall := "n/a"
		if truth > 0 {
			recall = formatFloat(float64(answers) / float64(truth))
		}
		t.AddRow(name, ix.NumNodes(), answers, truth, recall)
	}
	return []*Table{t}, nil
}

// groundTruthIDs evaluates a pattern at designator level (canonicalized
// values on both sides), matching the engines' semantics.
func groundTruthIDs(docs []*xmltree.Document, p *query.Pattern, enc *pathenc.Encoder) []int32 {
	canon := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		canon[i] = &xmltree.Document{ID: d.ID, Root: sequence.CanonicalizeValues(d.Root, enc)}
	}
	cp := canonicalizePatternValues(p, enc)
	return query.Eval(canon, cp)
}

func canonicalizePatternValues(p *query.Pattern, enc *pathenc.Encoder) *query.Pattern {
	var clone func(n *query.PNode) *query.PNode
	clone = func(n *query.PNode) *query.PNode {
		cp := &query.PNode{Axis: n.Axis, Wildcard: n.Wildcard, Name: n.Name, IsValue: n.IsValue, Value: n.Value, Prefix: n.Prefix}
		if n.IsValue && !n.Prefix {
			cp.Value = enc.SymbolName(enc.ValueSymbol(n.Value))
		}
		for _, c := range n.Children {
			cp.Children = append(cp.Children, clone(c))
		}
		return cp
	}
	return &query.Pattern{Root: clone(p.Root), Text: p.Text}
}

// AblationBuild compares the two build paths: the static build, which
// sorts the sequences into the trie, and dynamic insert + compaction.
func AblationBuild(cfg Config) ([]*Table, error) {
	n := cfg.scaled(200_000, 4_000)
	params := datagen.SynthParams{L: 3, F: 5, A: 25, I: 10, P: 40, Seed: cfg.Seed}
	sch, docs, err := datagen.Synth(params, n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-build",
		Title:  fmt.Sprintf("Build paths over %d records", n),
		Note:   "node counts must agree; the static build sorts the sequences and creates the trie in pre-order",
		Header: []string{"path", "build time", "trie nodes"},
	}
	enc := pathenc.NewEncoder(0)
	start := time.Now()
	ix, err := index.Build(docs, index.Options{Encoder: enc, Strategy: sequence.NewProbability(sch, enc)})
	if err != nil {
		return nil, err
	}
	t.AddRow("static (sorted)", time.Since(start), ix.NumNodes())
	// Dynamic: insert everything through the updatable wrapper, compacting
	// at the default threshold, then force a final compaction.
	builder := func(ctx context.Context, ds []*xmltree.Document) (engine.Engine, error) {
		enc := pathenc.NewEncoder(0)
		st := sequence.NewProbability(sch, enc)
		return index.BuildContext(ctx, ds, index.Options{Encoder: enc, Strategy: st})
	}
	start = time.Now()
	dyn, err := engine.NewDynamic(builder, nil, n/4)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if err := dyn.InsertContext(cfg.ctx(), d); err != nil {
			return nil, err
		}
	}
	if err := dyn.Compact(); err != nil {
		return nil, err
	}
	t.AddRow("dynamic insert+compact", time.Since(start), dyn.Main().(*index.Index).NumNodes())
	return []*Table{t}, nil
}
