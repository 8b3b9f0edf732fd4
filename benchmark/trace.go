package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xseq"
	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/index"
	"xseq/internal/pager"
	"xseq/internal/pathenc"
	"xseq/internal/qcache"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/server"
	"xseq/internal/shard"
	"xseq/internal/telemetry"
	"xseq/internal/trie"
	"xseq/internal/wal"
	"xseq/internal/xmltree"
)

// The traced pass. One goroutine in this process replays the head of the
// workload's op sequence through the public functions of every layer, in
// call order, timing each call from outside: a span per call, the layer's
// own counters read at the same boundary. Spans are kept in memory and
// written out when the pass ends. End-to-end metrics never come from here;
// bench.trace_overhead_ratio states what the recording itself costs.
//
// Layers nest by call: Server.ServeHTTP calls xseq.Index.QueryContext calls
// the layout's engine. Each is timed by its own call, and the spans are
// linked parent to child per op, so a layer's self time is its span minus
// the spans it is parent of.

// span is one timed call. Parent 0 means none.
type span struct {
	Trace  int    `json:"trace"` // op index; -1 build chain, -2 write segment
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, Span: len(t.spans) + 1, Parent: parent, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.Span
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// mean is the mean duration of the spans called name, in the given unit.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	var sum, n int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			sum += t.spans[i].End - t.spans[i].Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// median is the median duration of the spans called name.
func (t *tracer) median(name string, unit time.Duration) float64 {
	var d []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			d = append(d, float64(t.spans[i].End-t.spans[i].Start)/float64(unit))
		}
	}
	return median(d)
}

// selfMean is the mean self time of the spans called name: duration minus
// the part covered by the spans that name them as parent.
func (t *tracer) selfMean(name string, unit time.Duration) float64 {
	covered := make(map[int]int64)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			covered[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	var sum, n int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			sum += s.End - s.Start - covered[s.Span]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocs measures heap allocations across fn.
func allocs(fn func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// buildMono is the monolithic build the facade performs, spelled out over the
// layers' own entry points: infer the schema, build the strategy, index.
func buildMono(ctx context.Context, docs []*xmltree.Document) (*index.Index, error) {
	roots := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		roots[i] = d.Root
	}
	sch, err := schema.Infer(roots)
	if err != nil {
		return nil, err
	}
	enc := pathenc.NewEncoder(0)
	strat, err := sequence.NewByName("", sch, enc, nil, true)
	if err != nil {
		return nil, err
	}
	return index.BuildContext(ctx, docs, index.Options{Encoder: enc, Strategy: strat})
}

// pass is the state the stages of one traced pass share.
type pass struct {
	r    *runner
	tr   *tracer
	p    *plan
	docs []*xmltree.Document
	mono *index.Index
	fl   *flat.Index
	sh   *shard.Index
	ops  []int            // pool indexes of the replayed queries, in op order
	pats []*query.Pattern // parsed pool entries, by pool index
}

// buildEngine is buildMono as engine.Dynamic's builder.
func buildEngine(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
	return buildMono(ctx, docs)
}

func (r *runner) tracedPass(p *plan, facade *xseq.Index, snapshot string, load loadStats) error {
	ctx := context.Background()
	ps := &pass{r: r, p: p, tr: &tracer{t0: time.Now(), spans: make([]span, 0, 16*r.sc.TraceOps+4096)}}
	if err := ps.buildChain(ctx); err != nil {
		return err
	}
	defer ps.fl.Close()
	for i := 0; len(ps.ops) < r.sc.TraceOps; i++ {
		o, ok := p.opAt(i)
		if !ok {
			break
		}
		if o.kind == opQuery {
			ps.ops = append(ps.ops, int(o.idx))
		}
	}
	if err := ps.queryLayers(ctx); err != nil {
		return err
	}
	if err := ps.writePath(ctx); err != nil {
		return err
	}
	if err := ps.callChain(ctx, facade, snapshot, load); err != nil {
		return err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	return ps.tr.write(filepath.Join(r.outDir, "trace-"+r.w.Name+".jsonl"))
}

// buildChain runs the build once, each stage on its own.
func (ps *pass) buildChain(ctx context.Context) error {
	r, tr := ps.r, ps.tr
	nDocs := float64(len(r.corpus.docs))
	docs := make([]*xmltree.Document, len(r.corpus.xml))
	roots := make([]*xmltree.Node, len(docs))
	corpusNodes := 0
	id := tr.begin(-1, 0, "xmltree.parse")
	for i, b := range r.corpus.xml {
		root, err := xmltree.Parse(bytes.NewReader(b), xmltree.ParseOptions{})
		if err != nil {
			return err
		}
		docs[i], roots[i] = &xmltree.Document{ID: int32(i), Root: root}, root
	}
	r.set("xmltree.parse_us_per_doc", us(tr.end(id))/nDocs)
	for _, root := range roots {
		corpusNodes += root.Size()
	}
	r.set("xmltree.nodes_per_doc", float64(corpusNodes)/nDocs)
	ps.docs = docs

	id = tr.begin(-1, 0, "schema.infer")
	sch, err := schema.Infer(roots)
	if err != nil {
		return err
	}
	inferMS := ms(tr.end(id))
	r.set("schema.infer_ms", inferMS)

	enc := pathenc.NewEncoder(0)
	strat, err := sequence.NewByName("", sch, enc, nil, true)
	if err != nil {
		return err
	}
	if ra, ok := strat.(sequence.RepeatAware); ok {
		ra.SetRepeatPaths(sequence.RepeatPaths(roots, enc))
	}
	seqs := make([]sequence.Sequence, len(docs))
	seqLen := 0
	id = tr.begin(-1, 0, "sequence.gbest")
	for i, root := range roots {
		seqs[i] = strat.Sequence(root)
	}
	gbest := tr.end(id)
	for _, s := range seqs {
		seqLen += len(s)
	}
	r.set("sequence.gbest_us_per_doc", us(gbest)/nDocs)
	r.set("sequence.avg_len", float64(seqLen)/nDocs)

	tri := trie.New()
	id = tr.begin(-1, 0, "trie.insert")
	for i, s := range seqs {
		tri.Insert(s, docs[i].ID)
	}
	insert := tr.end(id)
	id = tr.begin(-1, 0, "trie.freeze")
	tri.Freeze()
	freeze := tr.end(id)
	r.set("trie.insert_us_per_doc", us(insert)/nDocs)
	r.set("trie.freeze_ms", ms(freeze))
	r.set("trie.nodes", float64(tri.NumNodes()))
	r.set("trie.nodes_per_corpus_node", float64(tri.NumNodes())/float64(corpusNodes))

	// index.Build over a fresh encoder and strategy; what it spends beyond
	// the stages above (repeat-path scan, link and end-list construction)
	// is index.build_other_ms.
	enc2 := pathenc.NewEncoder(0)
	strat2, err := sequence.NewByName("", sch, enc2, nil, true)
	if err != nil {
		return err
	}
	id = tr.begin(-1, 0, "index.build")
	mono, err := index.BuildContext(ctx, docs, index.Options{Encoder: enc2, Strategy: strat2})
	if err != nil {
		return err
	}
	build := tr.end(id)
	r.set("index.build_ms", ms(build))
	r.set("index.build_other_ms", ms(build-gbest-insert-freeze))
	ps.mono = mono

	monoPath := filepath.Join(r.dir, "trace-mono.idx")
	id = tr.begin(-1, 0, "index.save")
	if err := mono.SaveFile(monoPath); err != nil {
		return err
	}
	r.set("index.save_ms", ms(tr.end(id)))
	if fi, err := os.Stat(monoPath); err == nil {
		r.set("index.snapshot_bytes", float64(fi.Size()))
	}
	id = tr.begin(-1, 0, "index.load")
	if _, err := index.LoadFile(monoPath); err != nil {
		return err
	}
	r.set("index.load_ms", ms(tr.end(id)))

	flatPath := filepath.Join(r.dir, "trace-flat.idx")
	id = tr.begin(-1, 0, "flat.write")
	ex, err := mono.Export()
	if err != nil {
		return err
	}
	if err := flat.WriteFile(flatPath, ex); err != nil {
		return err
	}
	r.set("flat.write_ms", ms(tr.end(id)))
	id = tr.begin(-1, 0, "flat.open")
	if ps.fl, err = flat.OpenFile(flatPath, flat.Options{}); err != nil {
		return err
	}
	r.set("flat.open_ms", ms(tr.end(id)))
	if fi, err := os.Stat(flatPath); err == nil {
		r.set("flat.mapped_bytes", float64(fi.Size()))
	}

	id = tr.begin(-1, 0, "shard.build")
	if ps.sh, err = shard.BuildContext(ctx, docs, buildMono, shard.Options{Shards: 2}); err != nil {
		ps.fl.Close()
		return err
	}
	shardMS := ms(tr.end(id))
	r.set("shard.build_ms", shardMS)
	r.set("shard.build_vs_mono", shardMS/(inferMS+ms(build))) // base: infer + monolithic build
	return nil
}

// search runs pool entry k on engine e and checks the answer's size against
// the oracle.
func (ps *pass) search(ctx context.Context, e engine.Engine, k int) (int, error) {
	ids, err := e.QueryWithContext(ctx, ps.pats[k], engine.QueryOptions{})
	if err == nil && len(ids) != ps.p.pool[k].Count {
		err = fmt.Errorf("layer answer for %q: %d ids, oracle %d", ps.p.pool[k].Text, len(ids), ps.p.pool[k].Count)
	}
	return len(ids), err
}

// each calls fn for every replayed op.
func (ps *pass) each(fn func(i, k int) error) error {
	for i, k := range ps.ops {
		if err := fn(i, k); err != nil {
			return err
		}
	}
	return nil
}

// queryLayers replays the ops on each query-path layer by itself.
func (ps *pass) queryLayers(ctx context.Context) error {
	r, tr, p, mono := ps.r, ps.tr, ps.p, ps.mono
	nOps := float64(len(ps.ops))
	ps.pats = make([]*query.Pattern, len(p.pool))

	// query: parse and instantiate against the monolithic index's tables.
	instances := 0
	err := ps.each(func(i, k int) error {
		id := tr.begin(i, 0, "query.parse")
		pat, err := query.Parse(p.pool[k].Text)
		tr.end(id)
		if err != nil {
			return err
		}
		ps.pats[k] = pat
		id = tr.begin(i, 0, "query.instantiate")
		instances += len(pat.Instantiate(mono.Encoder(), mono.ChildIdx(), 0))
		tr.end(id)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("query.parse_us", tr.mean("query.parse", time.Microsecond))
	r.set("query.instantiate_us", tr.mean("query.instantiate", time.Microsecond))
	r.set("query.instances_per_op", float64(instances)/nOps)

	// index: a loop that counts allocations, then one loop that runs every op
	// four times back to back: once unmeasured to warm the caches, plain,
	// with a telemetry.Trace on the context, and with a span and the kernel's
	// counters read as well. Drift in the machine's speed then cancels out of
	// the differences that price the recording.
	plainSearch := func(i, k int) error { _, err := ps.search(ctx, mono, k); return err }
	count, size := allocs(func() { err = ps.each(plainSearch) })
	if err != nil {
		return err
	}
	r.set("index.allocs_per_op", count/nOps)
	r.set("index.bytes_per_op", size/nOps)
	tt := telemetry.GetTrace()
	defer telemetry.PutTrace(tt)
	tctx := telemetry.WithTrace(ctx, tt)
	var kc kernelCounts
	var plain, withTrace, withSpans time.Duration
	err = ps.each(func(i, k int) error {
		if err := plainSearch(i, k); err != nil {
			return err
		}
		t0 := time.Now()
		if err := plainSearch(i, k); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ps.search(tctx, mono, k); err != nil {
			return err
		}
		plain, withTrace = plain+t1.Sub(t0), withTrace+time.Since(t1)
		before := readKernel(tt)
		id := tr.begin(i, 0, "index.search")
		n, err := ps.search(tctx, mono, k)
		withSpans += tr.end(id)
		kc.add(readKernel(tt).minus(before), n)
		return err
	})
	if err != nil {
		return err
	}
	searchUS := tr.mean("index.search", time.Microsecond)
	r.set("index.search_us", searchUS)
	r.set("telemetry.trace_overhead_us", us(withTrace-plain)/nOps)
	r.set("bench.trace_overhead_ratio", float64(withSpans)/float64(plain)) // base: the plain calls
	r.set("index.orders_per_op", float64(kc.orders)/nOps)
	r.set("index.link_probes_per_op", float64(kc.linkProbes)/nOps)
	r.set("index.entries_scanned_per_op", float64(kc.entriesScanned)/nOps)
	r.set("index.cover_checks_per_op", float64(kc.coverChecks)/nOps)
	r.set("index.results_per_op", float64(kc.results)/nOps)
	if kc.results > 0 {
		r.set("index.entries_per_result", float64(kc.entriesScanned)/float64(kc.results))
	}
	if kc.coverChecks > 0 {
		r.set("index.cover_reject_ratio", float64(kc.coverRejections)/float64(kc.coverChecks))
	}

	// flat: the same ops on the mapped file, page accounting attached the
	// way xseqd attaches it to a flat snapshot (a pool that holds every page).
	fl := ps.fl
	if _, err := fl.AttachPager(pager.NewPool(int(fl.TotalPages()))); err != nil {
		return err
	}
	if err := ps.each(func(i, k int) error { _, err := ps.search(ctx, fl, k); return err }); err != nil { // warm
		return err
	}
	fl.ResetPagerStats()
	count, _ = allocs(func() {
		err = ps.each(func(i, k int) error {
			id := tr.begin(i, 0, "flat.search")
			_, err := ps.search(ctx, fl, k)
			tr.end(id)
			return err
		})
	})
	if err != nil {
		return err
	}
	r.set("flat.search_us", tr.mean("flat.search", time.Microsecond))
	r.set("flat.search_vs_index", tr.mean("flat.search", time.Microsecond)/searchUS) // base: index.search_us
	r.set("flat.page_touches_per_op", float64(fl.PagerStats().Reads)/nOps)
	r.set("flat.allocs_per_op", count/nOps)

	// shard: fan-out, merge and the slowest shard's share, from the
	// telemetry.Trace the fan-out records into.
	sh := ps.sh
	if err := ps.each(func(i, k int) error { _, err := ps.search(ctx, sh, k); return err }); err != nil { // warm
		return err
	}
	var fanout, merge int64
	var slowest float64
	count, _ = allocs(func() {
		err = ps.each(func(i, k int) error {
			st := telemetry.GetTrace()
			defer telemetry.PutTrace(st)
			id := tr.begin(i, 0, "shard.query")
			_, err := ps.search(telemetry.WithTrace(ctx, st), sh, k)
			d := tr.end(id)
			fanout += st.FanoutNS()
			merge += st.MergeNS()
			var worst int64
			for _, s := range st.Spans() {
				if s.DurNS > worst {
					worst = s.DurNS
				}
			}
			slowest += float64(worst) / float64(d)
			return err
		})
	})
	if err != nil {
		return err
	}
	r.set("shard.query_us", tr.mean("shard.query", time.Microsecond))
	r.set("shard.query_vs_mono", tr.mean("shard.query", time.Microsecond)/searchUS) // base: index.search_us
	r.set("shard.fanout_us", float64(fanout)/1e3/nOps)
	r.set("shard.merge_us", float64(merge)/1e3/nOps)
	r.set("shard.slowest_span_share", slowest/nOps)
	r.set("shard.allocs_per_op", count/nOps)

	// engine.MergeAscending on the real per-shard lists.
	err = ps.each(func(i, k int) error {
		var lists [][]int32
		total := 0
		for s := 0; s < 2; s++ {
			if part := sh.Shard(s); part != nil {
				ids, err := part.QueryWithContext(ctx, ps.pats[k], engine.QueryOptions{})
				if err != nil {
					return err
				}
				lists, total = append(lists, ids), total+len(ids)
			}
		}
		out := make([]int32, 0, total)
		id := tr.begin(i, 0, "engine.merge")
		engine.MergeAscending(lists, out, 0)
		tr.end(id)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("engine.merge_us", tr.mean("engine.merge", time.Microsecond))

	// qcache over the monolithic index: hits, and what a miss costs beyond
	// the search it forwards, taken against the same search run right after.
	cache := qcache.New(mono, 1024)
	var hitNS, missNS, missBase time.Duration
	hits, misses := 0, 0
	err = ps.each(func(i, k int) error {
		st := telemetry.GetTrace()
		defer telemetry.PutTrace(st)
		id := tr.begin(i, 0, "qcache.query")
		_, err := ps.search(telemetry.WithTrace(ctx, st), cache, k)
		d := tr.end(id)
		if err != nil {
			return err
		}
		if st.CacheState() == "hit" {
			hits, hitNS = hits+1, hitNS+d
			return nil
		}
		t0 := time.Now()
		err = plainSearch(i, k)
		misses, missNS, missBase = misses+1, missNS+d, missBase+time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	if hits > 0 {
		r.set("qcache.hit_us", us(hitNS)/float64(hits))
	}
	if misses > 0 {
		r.set("qcache.miss_overhead_us", us(missNS-missBase)/float64(misses)) // base: the plain search of the same op
	}
	return nil
}

// callChain replays the ops through the workload's own chain of calls, one
// op at a time and back to back: Server.ServeHTTP, which calls the facade's
// QueryContext, which calls the layout's engine. Each is timed by its own
// call and the three spans of an op are linked parent to child, so a layer's
// self time is its span minus its child's. The chain runs without the result
// cache even where the workload serves with one: qcache.* prices the cache on
// its own, and a cached answer has no engine call to subtract.
func (ps *pass) callChain(ctx context.Context, facade *xseq.Index, snapshot string, load loadStats) error {
	r, tr, p := ps.r, ps.tr, ps.p
	var q interface {
		QueryContext(ctx context.Context, q string) ([]int32, error)
	} = facade
	var eng engine.Engine = ps.mono
	cfg := server.Config{IndexPath: snapshot, Logf: func(string, ...any) {}}
	switch r.w.Layout {
	case layoutFlat:
		cfg.ExpectLayout, eng = "flat", ps.fl
		// Page accounting on the facade too, the way xseqd serves a flat
		// snapshot; ps.fl has had it since queryLayers.
		if st := facade.Stats(); st.Flat != nil {
			if _, err := facade.EnablePagedIO(int(st.Flat.Pages)); err != nil {
				return err
			}
		}
	case layoutSharded:
		cfg.ExpectShards, eng = 2, ps.sh
	case layoutDynamic:
		dynDocs, err := parseAll(r.corpus.xml, 0)
		if err != nil {
			return err
		}
		dyn, err := xseq.BuildDynamic(dynDocs, xseq.Config{}, 0)
		if err != nil {
			return err
		}
		defer dyn.Close()
		q = dyn
		if eng, err = engine.NewDynamic(buildEngine, ps.docs, 0); err != nil {
			return err
		}
		cfg = server.Config{WALPath: filepath.Join(r.dir, "trace-srv.wal"), CheckpointPath: snapshot, Logf: func(string, ...any) {}}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	respBytes := 0
	err = ps.each(func(i, k int) error {
		text := p.pool[k].Text
		req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(text), nil)
		rec := httptest.NewRecorder()
		handler := tr.begin(i, 0, "server.handler")
		srv.ServeHTTP(rec, req)
		tr.end(handler)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d for %q", rec.Code, text)
		}
		respBytes += rec.Body.Len()
		fac := tr.begin(i, handler, "xseq.query")
		ids, err := q.QueryContext(ctx, text)
		tr.end(fac)
		if err != nil {
			return err
		}
		if len(ids) != p.pool[k].Count {
			return fmt.Errorf("facade answer for %q: %d ids, oracle %d", text, len(ids), p.pool[k].Count)
		}
		id := tr.begin(i, fac, "engine.query")
		_, err = ps.search(ctx, eng, k)
		tr.end(id)
		return err
	})
	if err != nil {
		return err
	}
	nOps := float64(len(ps.ops))
	r.set("server.handler_us", tr.mean("server.handler", time.Microsecond))
	r.set("server.handler_self_us", tr.selfMean("server.handler", time.Microsecond)) // handler minus xseq.query
	r.set("server.response_bytes_per_op", float64(respBytes)/nOps)
	r.set("server.http_us", load.p50*1e3-tr.median("server.handler", time.Microsecond)) // client p50 minus the handler's
	r.set("xseq.query_us", tr.mean("xseq.query", time.Microsecond))
	r.set("xseq.facade_self_us", tr.selfMean("xseq.query", time.Microsecond)) // facade minus engine
	return nil
}

// writePath times the write path on the reserve documents: the log alone,
// engine.Dynamic (insert, the delta rebuild the next query pays, compaction),
// and the facade's durable insert.
func (ps *pass) writePath(ctx context.Context) error {
	r, tr, docs, pats, ops := ps.r, ps.tr, ps.docs, ps.pats, ps.ops
	n := r.sc.TraceWrites
	if n > len(r.corpus.reserve) {
		n = len(r.corpus.reserve)
	}
	writes := float64(n)

	// wal: append and the wait for durability, one entry at a time.
	walPath := filepath.Join(r.dir, "trace.wal")
	w, _, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		return err
	}
	var xmlBytes int
	for j := 0; j < n; j++ {
		payload, err := wal.EncodeDocument(r.corpus.reserve[j])
		if err != nil {
			return err
		}
		seq := uint64(j + 1)
		id := tr.begin(-2, 0, "wal.append")
		err = w.WriteRecord(seq, payload)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(-2, 0, "wal.sync_wait")
		err = w.WaitDurable(ctx, seq)
		tr.end(id)
		if err != nil {
			return err
		}
		xmlBytes += len(r.corpus.reserveXML[j])
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.set("wal.append_us", tr.mean("wal.append", time.Microsecond))
	r.set("wal.sync_wait_us", tr.mean("wal.sync_wait", time.Microsecond))
	if fi, err := os.Stat(walPath); err == nil && xmlBytes > 0 && r.w.Layout != layoutDynamic {
		// dynamic_rw reports the child's own log instead.
		r.set("wal.bytes_per_doc_byte", float64(fi.Size())/float64(xmlBytes))
	}
	id := tr.begin(-2, 0, "wal.replay")
	w, _, err = wal.Open(walPath, wal.Options{Apply: func(_ uint64, payload []byte) error {
		_, err := wal.DecodeDocument(payload)
		return err
	}})
	if err != nil {
		return err
	}
	r.set("wal.replay_ms", ms(tr.end(id)))
	if err := w.Close(); err != nil {
		return err
	}

	// engine.Dynamic: every insert invalidates the delta, and the next query
	// rebuilds it over every buffered document.
	dyn, err := engine.NewDynamic(buildEngine, docs, 0)
	if err != nil {
		return err
	}
	for i, k := range ops { // steady state, empty delta
		id := tr.begin(i, 0, "engine.dynamic_query")
		_, err := dyn.QueryWithContext(ctx, pats[k], engine.QueryOptions{})
		tr.end(id)
		if err != nil {
			return err
		}
	}
	r.set("engine.dynamic_query_us", tr.mean("engine.dynamic_query", time.Microsecond))
	var rebuild time.Duration
	resequenced := 0
	for j := 0; j < n; j++ {
		if err := dyn.InsertContext(ctx, r.corpus.reserve[j]); err != nil {
			return err
		}
		resequenced += dyn.PendingDocuments()
		pat := pats[ops[j%len(ops)]]
		id := tr.begin(-2, 0, "engine.query_after_insert")
		_, err := dyn.QueryWithContext(ctx, pat, engine.QueryOptions{})
		first := tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(-2, 0, "engine.query_steady")
		_, err = dyn.QueryWithContext(ctx, pat, engine.QueryOptions{})
		rebuild += first - tr.end(id)
		if err != nil {
			return err
		}
	}
	r.set("engine.delta_rebuild_ms", ms(rebuild)/writes) // first query after an insert minus the same query again
	r.set("engine.delta_rebuilds", writes)
	r.set("engine.delta_docs_per_insert", float64(resequenced)/writes)
	id = tr.begin(-2, 0, "engine.compact")
	if err := dyn.CompactContext(ctx); err != nil {
		return err
	}
	r.set("engine.compact_ms", ms(tr.end(id)))

	// xseq: the facade's durable insert (parse excluded, as on /insert the
	// handler parses).
	parsed, err := parseAll(r.corpus.reserveXML[:n], r.corpus.baseN())
	if err != nil {
		return err
	}
	fd, err := xseq.BuildDynamic(nil, xseq.Config{WALPath: filepath.Join(r.dir, "trace-facade.wal")}, 0)
	if err != nil {
		return err
	}
	defer fd.Close()
	for _, d := range parsed {
		id := tr.begin(-2, 0, "xseq.insert")
		err := fd.InsertContext(ctx, d)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	r.set("xseq.insert_us", tr.mean("xseq.insert", time.Microsecond))
	return nil
}

// kernelCounts sums the match kernel's work counters over a loop.
type kernelCounts struct {
	orders, linkProbes, entriesScanned, coverChecks, coverRejections int64
	results                                                          int64
}

func readKernel(t *telemetry.Trace) kernelCounts {
	return kernelCounts{orders: t.Orders(), linkProbes: t.LinkProbes(), entriesScanned: t.EntriesScanned(),
		coverChecks: t.CoverChecks(), coverRejections: t.CoverRejections()}
}

func (a kernelCounts) minus(b kernelCounts) kernelCounts {
	return kernelCounts{orders: a.orders - b.orders, linkProbes: a.linkProbes - b.linkProbes,
		entriesScanned: a.entriesScanned - b.entriesScanned, coverChecks: a.coverChecks - b.coverChecks,
		coverRejections: a.coverRejections - b.coverRejections}
}

func (a *kernelCounts) add(b kernelCounts, results int) {
	a.orders += b.orders
	a.linkProbes += b.linkProbes
	a.entriesScanned += b.entriesScanned
	a.coverChecks += b.coverChecks
	a.coverRejections += b.coverRejections
	a.results += int64(results)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
