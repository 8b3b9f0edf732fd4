// Server-side telemetry wiring: the process registry every subsystem's
// counters surface through, the per-layout latency histograms, the
// bounded top-K query-pattern table, the structured trace log, and the
// Prometheus /metrics handler.
//
// The registry unifies two kinds of state. Counters the server itself
// owns (queries, errors, inserts) are registry-native telemetry.Counter
// values — the /stats handler reads the same counters Prometheus scrapes.
// Counters owned by subsystems with their own snapshot accessors (the
// admission gate, the WAL, the checkpointer, the replicator, the pager,
// the query cache) are exported by a scrape-time collector that reads the
// existing stat structs, so the /stats JSON sections keep their exact
// shape and /metrics is derived from the same numbers with no second
// bookkeeping path.
package server

import (
	"encoding/json"
	"net/http"
	"time"

	"xseq/internal/query"
	"xseq/internal/telemetry"
)

// defaultPatternTopK bounds the query-pattern frequency table when
// Config.PatternTopK is zero.
const defaultPatternTopK = 64

// initTelemetry builds the registry and the server-owned metrics. Called
// once from New before any handler can run; collectors registered here
// read mode-dependent state (s.dyn, s.tasks) lazily at scrape
// time, so registration order against mode setup does not matter.
func (s *Server) initTelemetry() {
	r := telemetry.NewRegistry()
	s.reg = r
	s.queries = r.NewCounter("xseq_queries_total", "", "Queries served, including failures.")
	s.queryErrors = r.NewCounter("xseq_query_errors_total", "", "Queries that failed: timeout, cancellation, or engine error.")
	s.inserts = r.NewCounter("xseq_inserts_total", "", "Documents ingested via POST /insert.")
	s.insertErrs = r.NewCounter("xseq_insert_errors_total", "", "Rejected or failed inserts.")
	s.shardLat = r.NewHistogram("xseq_shard_query_duration_seconds", "",
		"Per-shard slices of sharded query fan-outs.")
	k := s.cfg.PatternTopK
	if k <= 0 {
		k = defaultPatternTopK
	}
	s.patterns = telemetry.NewTopK(k)
	s.latency = make(map[string]*telemetry.Histogram)
	r.RegisterCollector(s.collect)
}

// latencyHist returns the end-to-end latency histogram for one storage
// layout, creating and registering it on first use. Layouts appear as
// label variants of one xseq_query_duration_seconds family.
func (s *Server) latencyHist(layout string) *telemetry.Histogram {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	h, ok := s.latency[layout]
	if !ok {
		h = s.reg.NewHistogram("xseq_query_duration_seconds",
			telemetry.Label("layout", layout),
			"End-to-end query latency by storage layout.")
		s.latency[layout] = h
	}
	return h
}

// layoutName names the serving engine's storage layout for metric labels
// and trace lines: the snapshot's own layout in static mode, "dynamic"
// for primaries and followers (their main engine plus segments is not a
// snapshot layout).
func (s *Server) layoutName() string {
	if s.dyn != nil {
		return "dynamic"
	}
	if ix := s.swap.Current(); ix != nil {
		return ix.Layout()
	}
	return "unknown"
}

// collect is the registry's scrape-time callback for subsystem state that
// lives outside the registry: it reads the same stat snapshots /stats
// serves and emits them as gauges and counters.
func (s *Server) collect(e *telemetry.Emit) {
	e.Gauge("xseq_admission_slots", "", "Configured concurrent-query slots.", float64(s.cfg.MaxConcurrent))
	e.Gauge("xseq_admission_queue", "", "Configured admission queue depth.", float64(s.cfg.MaxQueue))
	e.Gauge("xseq_admission_active", "", "Queries executing right now.", float64(s.gate.active.Load()))
	e.Gauge("xseq_admission_waiting", "", "Queries queued for a slot.", float64(s.gate.waiting.Load()))
	e.Counter("xseq_admission_admitted_total", "", "Queries granted an execution slot.", s.gate.admitted.Load())
	e.Counter("xseq_admission_rejected_total", "", "Queries shed with 429 by the admission gate.", s.gate.rejected.Load())

	st := s.indexStats()
	e.Gauge("xseq_index_documents", "", "Documents in the serving index.", float64(st.Documents))
	e.Gauge("xseq_index_nodes", "", "Trie nodes in the serving index.", float64(st.IndexNodes))
	e.Gauge("xseq_index_links", "", "Distinct paths (horizontal links) in the serving index.", float64(st.Links))
	e.Gauge("xseq_index_shards", "", "Shard count of the serving index (0: monolithic).", float64(st.Shards))

	if qc := st.QueryCache; qc != nil {
		e.Counter("xseq_query_cache_hits_total", "", "Queries served from the result cache.", qc.Hits)
		e.Counter("xseq_query_cache_misses_total", "", "Queries that executed against the engine.", qc.Misses)
		e.Counter("xseq_query_cache_evictions_total", "", "Cache entries dropped for capacity or staleness.", qc.Evictions)
		e.Gauge("xseq_query_cache_entries", "", "Resident result-cache entries.", float64(qc.Entries))
	}
	if fs := st.Flat; fs != nil {
		e.Gauge("xseq_flat_mapped_bytes", "", "Size of the mapped flat snapshot.", float64(fs.MappedBytes))
		e.Gauge("xseq_flat_resident_bytes", "", "Bytes of the mapped snapshot queries have touched.", float64(fs.ResidentBytes))
		e.Gauge("xseq_flat_resident_pages", "", "Distinct 4KiB pages queries have touched.", float64(fs.ResidentPages))
		e.Counter("xseq_flat_reads_total", "", "Buffer-pool page reads.", fs.Reads)
		e.Counter("xseq_flat_disk_accesses_total", "", "Buffer-pool misses (the paper's disk-access metric).", fs.DiskAccesses)
	}
	if d := s.walStats(); d != nil {
		e.Counter("xseq_wal_appends_total", "", "Entries appended to the write-ahead log.", d.Appends)
		e.Counter("xseq_wal_syncs_total", "", "WAL fsync batches.", d.Syncs)
		e.Counter("xseq_wal_rotations_total", "", "WAL rotations against a checkpoint.", d.Rotations)
		e.Gauge("xseq_wal_size_bytes", "", "Current WAL file size.", float64(d.SizeBytes))
		e.Gauge("xseq_wal_last_seq", "", "Last sequence number appended to the WAL.", float64(d.LastSeq))
	}
	for _, t := range s.tasks {
		t.metrics(e)
	}
	e.Gauge("xseq_query_patterns_tracked", "", "Resident entries in the top-K pattern-frequency table.", float64(s.patterns.Len()))
}

// MetricsHandler serves the registry in Prometheus text exposition format
// (version 0.0.4). xseqd mounts it on the private -pprof listener, never
// the public one.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			s.cfg.Logf("server: metrics write: %v", err)
		}
	})
}

// traceSpan is one shard's slice of a trace-log line. Each span repeats
// the request's trace id (stamped by Trace.AddSpan), so shard-level lines
// extracted from aggregated logs remain attributable on their own.
type traceSpan struct {
	Trace   string  `json:"trace"`
	Shard   int32   `json:"shard"`
	Results int32   `json:"results"`
	MS      float64 `json:"ms"`
}

// traceLine is the one-JSON-object-per-query record Config.TraceLog
// receives. The q field holds the original query string, which is what
// xseqbench -replay extracts to re-drive the workload.
type traceLine struct {
	Trace           string      `json:"trace"`
	Query           string      `json:"q"`
	Layout          string      `json:"layout"`
	Status          int         `json:"status"`
	Results         int         `json:"results"`
	ElapsedMS       float64     `json:"elapsed_ms"`
	Instances       int64       `json:"instances"`
	Orders          int64       `json:"orders"`
	LinkProbes      int64       `json:"link_probes"`
	EntriesScanned  int64       `json:"entries_scanned"`
	CoverChecks     int64       `json:"cover_checks"`
	CoverRejections int64       `json:"cover_rejections"`
	Cache           string      `json:"cache,omitempty"`
	FanoutMS        float64     `json:"fanout_ms,omitempty"`
	MergeMS         float64     `json:"merge_ms,omitempty"`
	Shards          []traceSpan `json:"shards,omitempty"`
}

// observeQuery folds one completed query into the telemetry layer: the
// per-layout latency histogram, the per-shard span histogram, the
// pattern-frequency table, and (when armed) one trace-log line. Called
// after the query has fully joined, so the trace is quiescent; the caller
// returns the trace to the pool afterwards.
func (s *Server) observeQuery(pat *query.Pattern, q, layout string, elapsed time.Duration, tr *telemetry.Trace, status, results int) {
	s.latencyHist(layout).Observe(elapsed)
	spans := tr.Spans()
	for _, sp := range spans {
		s.shardLat.ObserveNS(sp.DurNS)
	}
	s.patterns.Record(pat.String())
	if s.cfg.TraceLog == nil {
		return
	}
	line := traceLine{
		Trace:           telemetry.IDString(tr.ID),
		Query:           q,
		Layout:          layout,
		Status:          status,
		Results:         results,
		ElapsedMS:       float64(elapsed) / float64(time.Millisecond),
		Instances:       tr.Instances(),
		Orders:          tr.Orders(),
		LinkProbes:      tr.LinkProbes(),
		EntriesScanned:  tr.EntriesScanned(),
		CoverChecks:     tr.CoverChecks(),
		CoverRejections: tr.CoverRejections(),
		Cache:           tr.CacheState(),
		FanoutMS:        float64(tr.FanoutNS()) / float64(time.Millisecond),
		MergeMS:         float64(tr.MergeNS()) / float64(time.Millisecond),
	}
	if len(spans) > 0 {
		line.Shards = make([]traceSpan, len(spans))
		for i, sp := range spans {
			line.Shards[i] = traceSpan{
				Trace:   telemetry.IDString(sp.TraceID),
				Shard:   sp.Shard,
				Results: sp.Results,
				MS:      float64(sp.DurNS) / float64(time.Millisecond),
			}
		}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return
	}
	blob = append(blob, '\n')
	s.traceMu.Lock()
	_, _ = s.cfg.TraceLog.Write(blob)
	s.traceMu.Unlock()
}

// latencyStat is one layout's slice of the /stats latency section.
type latencyStat struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// latencyStats computes the /stats latency section from the registry's
// histograms, nil before the first query.
func (s *Server) latencyStats() map[string]latencyStat {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if len(s.latency) == 0 {
		return nil
	}
	out := make(map[string]latencyStat, len(s.latency))
	for layout, h := range s.latency {
		out[layout] = latencyStat{
			Count: h.Count(),
			P50MS: float64(h.QuantileNS(0.50)) / float64(time.Millisecond),
			P95MS: float64(h.QuantileNS(0.95)) / float64(time.Millisecond),
			P99MS: float64(h.QuantileNS(0.99)) / float64(time.Millisecond),
		}
	}
	return out
}
