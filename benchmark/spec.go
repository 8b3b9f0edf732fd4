package main

import (
	"encoding/json"
	"io"
	"time"
)

// The benchmark's fixed vocabulary: workloads, metric names, units,
// directions and bounds. BENCHMARK.json at the repo root is what --spec
// prints; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// runSeconds is how long one run measures unless --seconds says otherwise.
const runSeconds = 20

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of xseqd sees. Every workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"build_docs_per_s", "docs/s", "higher", 0.25},
	{"ready_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.05},
	{"bytes_per_doc_byte", "ratio", "lower", 0.04},
}

// perLayer is one entry per layer measurement, layer = module name. They are
// reported, never gated.
var perLayer = []metricSpec{
	{"xmltree.parse_us_per_doc", "us", "lower", 0},
	{"xmltree.nodes_per_doc", "count", "lower", 0},
	{"schema.infer_ms", "ms", "lower", 0},
	{"sequence.gbest_us_per_doc", "us", "lower", 0},
	{"sequence.avg_len", "count", "lower", 0},
	{"trie.insert_us_per_doc", "us", "lower", 0},
	{"trie.freeze_ms", "ms", "lower", 0},
	{"trie.nodes", "count", "lower", 0},
	{"trie.nodes_per_corpus_node", "ratio", "lower", 0},
	{"index.build_ms", "ms", "lower", 0},
	{"index.build_other_ms", "ms", "lower", 0},
	{"index.save_ms", "ms", "lower", 0},
	{"index.load_ms", "ms", "lower", 0},
	{"index.snapshot_bytes", "bytes", "lower", 0},
	{"index.search_us", "us", "lower", 0},
	{"index.orders_per_op", "count", "lower", 0},
	{"index.link_probes_per_op", "count", "lower", 0},
	{"index.entries_scanned_per_op", "count", "lower", 0},
	{"index.entries_per_result", "ratio", "lower", 0},
	{"index.cover_checks_per_op", "count", "lower", 0},
	{"index.cover_reject_ratio", "ratio", "lower", 0},
	{"index.results_per_op", "count", "lower", 0},
	{"index.allocs_per_op", "count", "lower", 0},
	{"index.bytes_per_op", "bytes", "lower", 0},
	{"flat.write_ms", "ms", "lower", 0},
	{"flat.open_ms", "ms", "lower", 0},
	{"flat.mapped_bytes", "bytes", "lower", 0},
	{"flat.resident_bytes", "bytes", "lower", 0},
	{"flat.search_us", "us", "lower", 0},
	{"flat.search_vs_index", "ratio", "lower", 0},
	{"flat.page_touches_per_op", "count", "lower", 0},
	{"flat.allocs_per_op", "count", "lower", 0},
	{"shard.build_ms", "ms", "lower", 0},
	{"shard.build_vs_mono", "ratio", "lower", 0},
	{"shard.query_us", "us", "lower", 0},
	{"shard.fanout_us", "us", "lower", 0},
	{"shard.merge_us", "us", "lower", 0},
	{"shard.slowest_span_share", "ratio", "lower", 0},
	{"shard.query_vs_mono", "ratio", "lower", 0},
	{"shard.allocs_per_op", "count", "lower", 0},
	{"engine.dynamic_query_us", "us", "lower", 0},
	{"engine.delta_rebuild_ms", "ms", "lower", 0},
	{"engine.delta_rebuilds", "count", "lower", 0},
	{"engine.delta_docs_per_insert", "ratio", "lower", 0},
	{"engine.compact_ms", "ms", "lower", 0},
	{"engine.compactions", "count", "higher", 0},
	{"engine.merge_us", "us", "lower", 0},
	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.hit_us", "us", "lower", 0},
	{"qcache.miss_overhead_us", "us", "lower", 0},
	{"qcache.evictions", "count", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"query.instantiate_us", "us", "lower", 0},
	{"query.instances_per_op", "count", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.sync_wait_us", "us", "lower", 0},
	{"wal.syncs_per_insert", "ratio", "lower", 0},
	{"wal.bytes_per_doc_byte", "ratio", "lower", 0},
	{"wal.replay_ms", "ms", "lower", 0},
	{"wal.recovery_s", "s", "lower", 0},
	{"xseq.build_ms", "ms", "lower", 0},
	{"xseq.query_us", "us", "lower", 0},
	{"xseq.facade_self_us", "us", "lower", 0},
	{"xseq.insert_us", "us", "lower", 0},
	{"server.handler_us", "us", "lower", 0},
	{"server.handler_self_us", "us", "lower", 0},
	{"server.http_us", "us", "lower", 0},
	{"server.response_bytes_per_op", "bytes", "lower", 0},
	{"server.gate_rejected", "count", "lower", 0},
	{"server.hist_p50_ms", "ms", "lower", 0},
	{"server.insert_p50_ms", "ms", "lower", 0},
	{"server.insert_p95_ms", "ms", "lower", 0},
	{"server.paced_p50_ms", "ms", "lower", 0},
	{"server.paced_p99_ms", "ms", "lower", 0},
	{"server.paced_late_p99_ms", "ms", "lower", 0},
	{"server.paced_backlog_max", "count", "lower", 0},
	{"telemetry.trace_overhead_us", "us", "lower", 0},
	{"bench.client_cpu_share", "ratio", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}

// Layouts a workload can serve from.
const (
	layoutMono    = "monolithic"
	layoutFlat    = "flat"
	layoutSharded = "sharded"
	layoutDynamic = "dynamic"
)

// workload is one traffic mix against one xseqd configuration.
type workload struct {
	Name string
	// Why records the reason the workload exists: which layers it loads and
	// which it bypasses.
	Why    string
	Corpus string // "xmark" | "dblp"
	Layout string
	Pool   string // "twig" | "scan" | "mixed"
	// Zipf is the exponent of the pattern draw; 0 draws uniformly.
	Zipf float64
	// InsertEvery makes every n-th operation an insert (0: queries only).
	InsertEvery int
	// CycleOps ends the timed part after this many operations, where the
	// cost of an operation is periodic in its index (0: when the time is up).
	CycleOps int
	// PacedRate is the open-loop phase's fixed rate in ops/s: half of the
	// ops_per_s recorded at the commit that introduced the benchmark
	// (README.md, "Recorded numbers"). It never adapts at run time.
	PacedRate float64
}

var workloads = []workload{
	{
		Name:      "mono_twig",
		Why:       "selective twigs on the heap snapshot: path-link descent, cover test and query parsing do the work; shard, flat, cache and WAL do none",
		Corpus:    "xmark",
		Layout:    layoutMono,
		Pool:      "twig",
		PacedRate: 2000,
	},
	{
		Name:      "flat_twig",
		Why:       "same corpus and op sequence as mono_twig served from the mmap'd XSEQFLAT file: the pair isolates internal/flat (bounds checks, uvarint decode, page accounting)",
		Corpus:    "xmark",
		Layout:    layoutFlat,
		Pool:      "twig",
		PacedRate: 320,
	},
	{
		Name:      "sharded_scan",
		Why:       "low-selectivity patterns on 2 shards: end-node doc collection, cross-shard merge and JSON encoding of >=2% of the corpus dominate, descent is trivial",
		Corpus:    "xmark",
		Layout:    layoutSharded,
		Pool:      "scan",
		PacedRate: 1100,
	},
	{
		Name:        "dynamic_rw",
		Why:         "durable primary, 1 insert per 9 Zipf(1.2) queries: wal fsync, delta rebuild, base+delta merge and cache invalidation work here and nowhere else",
		Corpus:      "dblp",
		Layout:      layoutDynamic,
		Pool:        "mixed",
		Zipf:        1.2,
		InsertEvery: 10,
		// engine.Dynamic compacts every 1024 inserts, and between
		// compactions every insert makes the next query re-index a delta
		// that has grown by one document: throughput falls fivefold through
		// a cycle and recovers at its end. Only a whole cycle has a rate.
		CycleOps:  10 * 1024,
		PacedRate: 360,
	},
}

// scale fixes every size that shapes a run. The full scale is what
// BENCHMARK.json's run uses; the smoke scale exists for `go test` and a
// sub-10-second end-to-end check.
type scale struct {
	Records   int // corpus documents served at start
	Reserve   int // further documents: inserts (dynamic_rw) and the traced write segment
	TwigPool  int
	ScanPool  int
	MixedPool int
	SetupReps int // set-up is repeated and the median reported
	// ready_s: xseqd is started on the measured snapshot again and again
	// for ReadyFor, at least ReadyStarts times and at most maxReadyStarts.
	// A 30 ms start varies by a third from one to the next and needs many;
	// a 300 ms one varies little and can afford few.
	ReadyStarts int
	ReadyFor    time.Duration
	TraceOps    int // ops replayed in-process by the traced pass
	TraceWrites int // inserts in the traced pass's write segment
}

var (
	fullScale  = scale{Records: 10000, Reserve: 2048, TwigPool: 512, ScanPool: 64, MixedPool: 256, SetupReps: 3, ReadyStarts: 5, ReadyFor: time.Second, TraceOps: 500, TraceWrites: 256}
	smokeScale = scale{Records: 1000, Reserve: 256, TwigPool: 48, ScanPool: 16, MixedPool: 48, SetupReps: 1, ReadyStarts: 1, TraceOps: 200, TraceWrites: 8}
)

const (
	warmupShare    = 0.10 // untimed lead-in, as a share of --seconds
	maxReadyStarts = 25
)

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// writeSpec prints BENCHMARK.json.
func writeSpec(w io.Writer) error {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []namedWhy   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{wl.Name, wl.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
