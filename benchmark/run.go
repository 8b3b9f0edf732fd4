package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xseq"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with its provenance, one JSON line of an --out file;
// --compare reads these.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke"`
	Env      env     `json:"env"`
	result
}

// env is the machine shape a record was measured on.
type env struct {
	NProc           int     `json:"nproc"`
	Clients         int     `json:"clients"`
	ChildGOMAXPROCS int     `json:"child_gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	TimedOps        int     `json:"timed_ops"`
	TimedQueries    int     `json:"timed_queries"` // samples behind p50_ms and p99_ms
	PacedRate       float64 `json:"paced_rate"`
}

// runner holds the state of one workload run.
type runner struct {
	options
	w       *workload
	root    string // the checkout
	bin     string // xseqd
	dir     string // this run's scratch directory
	outDir  string // pools, op sequences and traces, kept for replay by hand
	corpus  *corpus
	metrics map[string]float64
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

// buildConfig is the xseq.Config that produces the workload's snapshot.
func (r *runner) buildConfig() xseq.Config {
	switch r.w.Layout {
	case layoutFlat:
		return xseq.Config{Layout: xseq.LayoutFlat}
	case layoutSharded:
		return xseq.Config{Shards: 2}
	case layoutDynamic:
		// The primary restarts from a checkpoint: a snapshot that keeps its
		// documents.
		return xseq.Config{KeepDocuments: true}
	}
	return xseq.Config{}
}

// childArgs are xseqd's flags for the workload. Adaptive resequencing,
// followers and the checkpoint policy stay off everywhere.
func (r *runner) childArgs(snapshot, wal string) []string {
	switch r.w.Layout {
	case layoutFlat:
		return []string{"-index", snapshot, "-layout", "flat"}
	case layoutSharded:
		return []string{"-index", snapshot, "-shards", "2"}
	case layoutDynamic:
		// fsync per acknowledged insert (-wal-sync 0), compaction at its
		// default threshold.
		return []string{"-wal", wal, "-checkpoint", snapshot, "-wal-sync", "0", "-query-cache", "1024"}
	}
	return []string{"-index", snapshot, "-layout", "monolithic"}
}

// setupSample times one complete set-up.
type setupSample struct {
	parse, build, save, ready time.Duration
}

func (s setupSample) total() time.Duration { return s.parse + s.build + s.save + s.ready }

// setupOnce does everything between "XML bytes exist" and "xseqd answers":
// parse, build, snapshot write, child start. The child is left running.
func (r *runner) setupOnce(tag string) (s setupSample, docs []*xseq.Document, ix *xseq.Index, c *child, err error) {
	t0 := time.Now()
	if docs, err = parseAll(r.corpus.xml, 0); err != nil {
		return s, nil, nil, nil, err
	}
	t1 := time.Now()
	if ix, err = xseq.Build(docs, r.buildConfig()); err != nil {
		return s, nil, nil, nil, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	snapshot := filepath.Join(r.dir, tag+".idx")
	if err = ix.SaveFile(snapshot); err != nil {
		return s, nil, nil, nil, fmt.Errorf("save snapshot: %w", err)
	}
	t3 := time.Now()
	c, ready, err := startChild(r.bin, r.childArgs(snapshot, filepath.Join(r.dir, tag+".wal")), filepath.Join(r.dir, "xseqd.log"))
	if err != nil {
		return s, nil, nil, nil, err
	}
	s = setupSample{parse: t1.Sub(t0), build: t2.Sub(t1), save: t3.Sub(t2), ready: ready}
	return s, docs, ix, c, nil
}

// parseAll parses serialised documents, numbering them from firstID.
func parseAll(xml [][]byte, firstID int32) ([]*xseq.Document, error) {
	docs := make([]*xseq.Document, len(xml))
	for i, b := range xml {
		d, err := xseq.ParseDocument(firstID+int32(i), bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("parse document %d: %w", firstID+int32(i), err)
		}
		docs[i] = d
	}
	return docs, nil
}

// run executes the workload and returns the result to print.
func (r *runner) run() (result, env, error) {
	r.metrics = map[string]float64{}
	e := env{NProc: runtime.NumCPU(), Clients: clients(), ChildGOMAXPROCS: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commitID(r.root), PacedRate: r.w.PacedRate}
	var err error
	if r.corpus, err = generate(r.w.Corpus, r.seed, r.sc); err != nil {
		return result{}, e, err
	}

	// Set-up is repeated and the repetitions are spread over the run (before
	// the pool is built, before the load, after the load) so that one
	// episode of interference cannot cover them all. The second child is
	// the one measured.
	reps := r.sc.SetupReps
	if r.trace {
		reps = 1 // a traced run reports no set-up metric
	}
	samples := make([]setupSample, 0, reps)
	s0, docs, ix, c, err := r.setupOnce("snap0")
	if err != nil {
		return result{}, e, err
	}
	defer func() { c.kill() }()
	samples = append(samples, s0)
	tag := "snap0"

	screen, err := r.screenIndex(docs, ix)
	if err != nil {
		return result{}, e, err
	}
	pool, err := buildPool(r.w.Pool, r.poolSize(), r.seed, r.corpus, screen, r.w.InsertEvery > 0)
	if err != nil {
		return result{}, e, err
	}
	if r.wrongOracle {
		pool[0].Count++
	}
	p := newPlan(r.w, r.seed, pool, r.corpus)
	if err := r.dumpPlan(p); err != nil {
		return result{}, e, err
	}

	if reps > 1 {
		c.kill()
		tag = "snap1"
		var s setupSample
		if s, _, ix, c, err = r.setupOnce(tag); err != nil {
			return result{}, e, err
		}
		samples = append(samples, s)
	}
	snapshot, walPath := filepath.Join(r.dir, tag+".idx"), filepath.Join(r.dir, tag+".wal")

	// Closed loop: warm-up, then the timed part.
	ws, err := dialWorkers(c.addr, clients())
	if err != nil {
		return result{}, e, err
	}
	defer closeWorkers(ws)
	timed := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		timed = timed * 35 / 100 // the paced phase and the in-process pass need the rest
	}
	warm := closedLoop(p, ws, 0, time.Duration(float64(timed)*warmupShare), 0)
	cpuSelf0, cpuChild0 := selfCPUSeconds(), c.cpuSeconds()
	rss := c.watchRSS(250 * time.Millisecond)
	ph := closedLoop(p, ws, warm.nextOp, timed, r.w.CycleOps)
	rssMB := rss()
	cpuSelf, cpuChild := selfCPUSeconds()-cpuSelf0, c.cpuSeconds()-cpuChild0
	st := summarise(ph)
	attempted, failed := warm.attempted+ph.attempted, warm.failed+ph.failed
	e.TimedOps, e.TimedQueries = ph.attempted, st.queries
	r.set("ops_per_s", st.opsPerS)
	r.set("p50_ms", st.p50)
	r.set("p99_ms", st.p99)
	r.set("server.insert_p50_ms", st.insP50)
	r.set("server.insert_p95_ms", st.insP95)
	if cpuSelf+cpuChild > 0 {
		r.set("bench.client_cpu_share", cpuSelf/(cpuSelf+cpuChild))
	}
	r.set("rss_mb", rssMB)
	if err := r.spaceMetric(p, snapshot, walPath); err != nil {
		return result{}, e, err
	}
	var stats childStats
	if err := c.get("/stats", &stats); err != nil {
		return result{}, e, err
	}
	r.statsMetrics(&stats)

	if r.trace {
		pp := openLoop(p, ws, ph.nextOp, r.w.PacedRate, timed)
		attempted, failed = attempted+pp.attempted, failed+pp.failed
		r.pacedMetrics(pp)
	}

	if r.w.Layout == layoutDynamic {
		// Crash the primary after the last acknowledgement and restart it
		// on the same log: every acknowledged insert must be queryable.
		closeWorkers(ws)
		c.kill()
		c2, recovery, err := startChild(r.bin, r.childArgs(snapshot, walPath), filepath.Join(r.dir, "xseqd.log"))
		if err != nil {
			return result{}, e, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		c = c2
		r.set("wal.recovery_s", recovery.Seconds())
		acked, lost, err := r.lostInserts(c, p)
		if err != nil {
			return result{}, e, err
		}
		attempted, failed = attempted+acked, failed+lost
	}

	c.kill()

	// The remaining set-ups.
	for i := len(samples); i < reps; i++ {
		s, _, _, extra, err := r.setupOnce(fmt.Sprintf("snap%d", i))
		if err != nil {
			return result{}, e, err
		}
		extra.kill()
		samples = append(samples, s)
	}
	var totals, rates, readies []float64
	for _, s := range samples {
		totals = append(totals, s.total().Seconds())
		rates = append(rates, float64(len(r.corpus.docs))/(s.parse+s.build+s.save).Seconds())
	}
	// ready_s has starts of its own, back to back on the measured snapshot,
	// so the page cache is warm and no build has just churned the heap.
	for i, t0 := 0, time.Now(); !r.trace && i < maxReadyStarts && (i < r.sc.ReadyStarts || time.Since(t0) < r.sc.ReadyFor); i++ {
		extra, ready, err := startChild(r.bin, r.childArgs(snapshot, filepath.Join(r.dir, fmt.Sprintf("ready%d.wal", i))), filepath.Join(r.dir, "xseqd.log"))
		if err != nil {
			return result{}, e, err
		}
		extra.kill()
		readies = append(readies, ready.Seconds())
	}
	sort.Float64s(rates)
	r.set("setup_s", median(totals))
	// Interference only ever slows a build, so the fastest of the
	// spread-out repetitions is the one that repeats.
	r.set("build_docs_per_s", rates[len(rates)-1])
	r.set("ready_s", median(readies))
	r.set("xseq.build_ms", samples[0].build.Seconds()*1e3)

	if r.trace {
		if err := r.tracedPass(p, ix, snapshot, st); err != nil {
			return result{}, e, fmt.Errorf("traced pass: %w", err)
		}
	}

	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Value: r.metrics[m.Name], Unit: m.Unit}
	}
	return res, e, nil
}

func (r *runner) poolSize() int {
	switch r.w.Pool {
	case "twig":
		return r.sc.TwigPool
	case "scan":
		return r.sc.ScanPool
	}
	return r.sc.MixedPool
}

// screenIndex is the library index pool patterns are screened against: a
// monolithic heap index with default options (the value-hash space xseqd
// serves with), whatever the workload's layout, so that a pool never depends
// on the layout it will be asked of. It covers the reserve only where the
// workload inserts it.
func (r *runner) screenIndex(docs []*xseq.Document, ix *xseq.Index) (*xseq.Index, error) {
	if r.w.Layout == layoutMono {
		return ix, nil
	}
	if r.w.InsertEvery > 0 {
		more, err := parseAll(r.corpus.reserveXML, r.corpus.baseN())
		if err != nil {
			return nil, err
		}
		docs = append(docs[:len(docs):len(docs)], more...)
	}
	screen, err := xseq.Build(docs, xseq.Config{})
	if err != nil {
		return nil, fmt.Errorf("build screening index: %w", err)
	}
	return screen, nil
}

// spaceMetric reports bytes stored per byte of user data: the snapshot
// against the serialised corpus or, for the primary, the log against the XML
// it acknowledged.
func (r *runner) spaceMetric(p *plan, snapshot, walPath string) error {
	path, user := snapshot, r.corpus.xmlBytes
	if r.w.Layout == layoutDynamic {
		path, user = walPath, 0
		for j := range p.state {
			if p.state[j].Load() == 2 {
				user += int64(len(r.corpus.reserveXML[j]))
			}
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if user == 0 {
		return fmt.Errorf("no user bytes to compare %s against", path)
	}
	r.set("bytes_per_doc_byte", float64(fi.Size())/float64(user))
	if r.w.Layout == layoutDynamic {
		r.set("wal.bytes_per_doc_byte", float64(fi.Size())/float64(user))
	}
	return nil
}

// statsMetrics copies the per-layer numbers only the child can report.
func (r *runner) statsMetrics(s *childStats) {
	if s.Flat != nil {
		r.set("flat.resident_bytes", float64(s.Flat.ResidentBytes))
	}
	if q := s.QueryCache; q != nil {
		if q.Hits+q.Misses > 0 {
			r.set("qcache.hit_ratio", float64(q.Hits)/float64(q.Hits+q.Misses))
		}
		r.set("qcache.evictions", float64(q.Evictions))
	}
	r.set("server.gate_rejected", float64(s.Admission.Rejected))
	if s.Ingest != nil {
		r.set("engine.compactions", float64(s.Ingest.Compactions))
		if s.Durability != nil && s.Ingest.Inserts > 0 {
			r.set("wal.syncs_per_insert", float64(s.Durability.Syncs)/float64(s.Ingest.Inserts))
		}
	}
	for _, l := range s.Latency { // one layout per server
		r.set("server.hist_p50_ms", l.P50MS)
	}
}

// pacedMetrics summarises the open-loop phase, every latency timed from the
// request's due time.
func (r *runner) pacedMetrics(ph phase) {
	var lat, late []float64
	for _, rc := range ph.recs {
		if rc.kind == opQuery {
			lat = append(lat, float64(rc.lat)/1e6)
		}
		late = append(late, float64(rc.late)/1e6)
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	r.set("server.paced_p50_ms", quantile(lat, 0.50))
	r.set("server.paced_p99_ms", quantile(lat, 0.99))
	r.set("server.paced_late_p99_ms", quantile(late, 0.99))
	r.set("server.paced_backlog_max", float64(ph.backlog))
}

// lostInserts asks the restarted primary for every document ("/*" matches
// any root) and counts acknowledged inserts that are not there.
func (r *runner) lostInserts(c *child, p *plan) (acked, lost int, err error) {
	cn, err := dial(c.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cn.close()
	status, body, err := cn.do(queryRequest("/*"))
	if err != nil || status != 200 {
		return 0, 0, fmt.Errorf("durability query: status %d: %v", status, err)
	}
	var a answer
	if !scanAnswer(body, p.baseN, &a) {
		return 0, 0, fmt.Errorf("durability query: unreadable reply")
	}
	present := make(map[int32]bool, len(a.extra))
	for _, id := range a.extra {
		present[id] = true
	}
	if a.n != int(p.baseN) {
		lost++ // the starting corpus itself came back incomplete
	}
	for j := range p.state {
		if p.state[j].Load() == 2 {
			acked++
			if !present[p.baseN+int32(j)] {
				lost++
			}
		}
	}
	return acked, lost, nil
}

// dumpPlan writes the pool (with its oracle) and the head of the op sequence
// so a run can be replayed by hand against any xseqd.
func (r *runner) dumpPlan(p *plan) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(p.pool, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, "pool-"+r.w.Name+".json"), b, 0o644); err != nil {
		return err
	}
	var ops bytes.Buffer
	for i := 0; i < 50000; i++ {
		o, ok := p.opAt(i)
		if !ok {
			break
		}
		if o.kind == opInsert {
			fmt.Fprintf(&ops, "insert %d\n", p.baseN+o.idx)
		} else {
			fmt.Fprintf(&ops, "query %d\n", o.idx)
		}
	}
	return os.WriteFile(filepath.Join(r.outDir, "ops-"+r.w.Name+".txt"), ops.Bytes(), 0o644)
}
