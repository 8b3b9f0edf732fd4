// Package server implements xseqd's HTTP serving layer: an overload-safe
// query front end over a loaded index snapshot. The design goals, in
// order, are (1) bounded resource use under overload — admission control
// sheds excess load with 429 + Retry-After instead of queueing without
// bound; (2) bounded latency — every query runs under a deadline wired
// into the index's context-aware match loops; (3) zero-downtime operations
// — snapshots hot-reload with an atomic swap and a corrupt replacement
// file leaves the old snapshot serving; and (4) clean shutdown — drain
// stops admission, waits out in-flight queries, and cancels stragglers
// once the drain budget is spent.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"xseq"
	"xseq/internal/query"
	"xseq/internal/telemetry"
)

// Config tunes a Server. The zero value of every field means "use the
// default" noted on it. Exactly one serving mode must be selected:
// IndexPath (static snapshot), WALPath (durable dynamic primary), or
// FollowURL (replica tailing a primary; may combine with WALPath for a
// durable follower).
type Config struct {
	// IndexPath is the SaveFile snapshot to serve; Reload and WatchFile
	// re-read it. Mutually exclusive with WALPath and FollowURL.
	IndexPath string
	// WALPath makes the server a durable dynamic primary: it serves an
	// updatable index recovered from (and logging to) the write-ahead log
	// at this path, accepts POST /insert, and streams the log to followers
	// on GET /wal.
	WALPath string
	// WALStrict refuses to start on a torn or corrupt WAL tail instead of
	// truncating at the tear; the startup error matches *xseq.WALCorruptError.
	WALStrict bool
	// WALSyncWindow batches WAL fsyncs over this group-commit window
	// (0: fsync per insert, shared between concurrent inserters).
	WALSyncWindow time.Duration
	// CheckpointEveryEntries and CheckpointEveryBytes arm the automatic
	// checkpoint policy on a WALPath server: once the log holds at least
	// this many entries (or bytes), a background round compacts the index,
	// snapshots it to CheckpointPath, and rotates the log. Either bound
	// fires the policy; both zero leaves it off. Requires WALPath.
	CheckpointEveryEntries int
	CheckpointEveryBytes   int64
	// CheckpointPath is where checkpoints are written and served from
	// (GET /snapshot), and where a restart — primary or durable follower —
	// looks for a snapshot to seed the index before WAL replay. Defaults to
	// WALPath + ".ckpt" when the checkpoint policy is armed or the server
	// is a durable follower.
	CheckpointPath string
	// FollowURL makes the server a read-only follower of the primary at
	// this base URL (e.g. "http://primary:8080"): it tails GET /wal,
	// applies every entry, answers queries, and rejects POST /insert with
	// 403. With WALPath also set the follower persists what it applies and
	// resumes from its own log after a restart. While the primary is
	// unreachable the follower keeps serving reads and /healthz reports
	// degraded with the error.
	FollowURL string
	// MaxConcurrent bounds queries executing at once (default 32).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a slot (default 2*MaxConcurrent);
	// arrivals beyond slots+queue get 429.
	MaxQueue int
	// DefaultTimeout is the per-query deadline when the request names none
	// (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout (default 60s).
	MaxTimeout time.Duration
	// ExpectShards, when > 0, requires every snapshot — initial and
	// reloaded — to be sharded with exactly this many shards. A mismatched
	// initial snapshot fails startup; a mismatched replacement is rejected
	// on reload and the old snapshot keeps serving. 0 accepts any layout.
	ExpectShards int
	// ExpectLayout, when non-empty, requires every snapshot — initial and
	// reloaded — to have this storage layout: "monolithic", "sharded", or
	// "flat". For a single-partition snapshot it also chooses how the
	// snapshot is held: "flat" maps it in place and attaches page-level
	// accounting, so /stats reports resident-vs-mapped bytes and disk
	// accesses; otherwise it is read into memory and verified in full as it
	// loads. Like ExpectShards, a mismatched initial snapshot (sharded where
	// "monolithic" or "flat" is expected, or the reverse) fails startup and
	// a mismatched replacement is rejected on reload.
	ExpectLayout string
	// QueryCacheEntries, when > 0, wraps every served snapshot — initial
	// and reloaded — in a result cache of this many entries. A reload swaps
	// in a fresh snapshot with a fresh empty cache, so stale results are
	// structurally impossible; hit/miss counters appear in /stats.
	QueryCacheEntries int
	// Chaos, when non-empty, injects per-route faults (latency, errors,
	// panics) for resilience drills; leave nil in production.
	Chaos Chaos
	// TraceLog, when non-nil, receives one structured JSON line per
	// completed query: trace id, per-shard latency spans, fan-out/merge
	// split, kernel instance/order counts, and cache hit/miss. Writes are
	// serialized by the server; the writer itself need not be safe for
	// concurrent use. xseqd wires -trace-log here.
	TraceLog io.Writer
	// PatternTopK bounds the per-pattern query-frequency table surfaced in
	// /stats (default 64 patterns, space-saving eviction).
	PatternTopK int
	// Adaptive turns on online adaptive resequencing: a background loop
	// derives the paper's Eq 6 weight vector w(C) from the live pattern
	// table (aged each poll so the weights track the recent mix), and when
	// the serving index's sequencing has drifted past AdaptiveDrift it
	// rebuilds the index re-sequenced around the mix and hot-swaps it in —
	// reads keep serving the old index throughout.
	// Static mode requires a snapshot built with KeepDocuments (the corpus
	// to rebuild from); incompatible with FollowURL (a follower's index is
	// the primary's log, not its own to re-sequence).
	Adaptive bool
	// AdaptivePoll is how often the loop samples the pattern table
	// (default 2s).
	AdaptivePoll time.Duration
	// AdaptiveDrift is the drift threshold in (0, 1] that triggers a
	// rebuild (default 0.25). AdaptivePoll, AdaptiveDrift and
	// AdaptiveMinInterval require Adaptive.
	AdaptiveDrift float64
	// AdaptiveMinInterval rate-limits successful rebuilds (default 30s).
	AdaptiveMinInterval time.Duration
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// Fixed in production; tests shorten them. checkpointPoll is how often
	// the checkpoint policy samples the WAL (1s); snapshotMaxConcurrent
	// bounds concurrent GET /snapshot downloads (2); followMinBackoff and
	// followMaxBackoff bound the follower's retry backoff (100ms, 5s);
	// walPollWait caps a GET /wal long-poll and is what the follower asks a
	// primary to hold (25s); adaptiveMinSamples is the decayed pattern-table
	// mass a rebuild needs, against tuning to stray queries (32);
	// adaptiveDecay ages the table each poll (0.98).
	checkpointPoll        time.Duration
	snapshotMaxConcurrent int
	followMinBackoff      time.Duration
	followMaxBackoff      time.Duration
	walPollWait           time.Duration
	adaptiveMinSamples    int
	adaptiveDecay         float64

	// testSnapshotBody, when set, wraps the snapshot download stream a
	// re-seeding follower reads — the chaos tests' corruption injection
	// point. Called once per download attempt.
	testSnapshotBody func(io.Reader) io.Reader
	// testRebuildFail, when set, runs before every adaptive rebuild, after
	// a static rebuild has read its base snapshot; a non-nil return fails
	// the rebuild — the failure-containment tests' injection point.
	testRebuildFail func() error
}

// ErrConfig is wrapped by every error New returns for a Config that
// selects no serving mode or an impossible one, or holds an out-of-range
// value. cmd/xseqd maps it to its usage exit code.
var ErrConfig = errors.New("server: invalid configuration")

// validate enforces the mode rules and value ranges New relies on. It runs
// before applyDefaults, so a zero still means "unset".
func (c *Config) validate() error {
	dynamic := c.WALPath != "" || c.FollowURL != ""
	ckptArmed := c.CheckpointEveryEntries > 0 || c.CheckpointEveryBytes > 0
	var problem string
	switch {
	case c.IndexPath == "" && !dynamic:
		problem = "one of Config.IndexPath, WALPath, FollowURL is required"
	case c.IndexPath != "" && dynamic:
		problem = "Config.IndexPath is mutually exclusive with WALPath/FollowURL"
	case c.ExpectLayout != "" && c.ExpectLayout != "monolithic" && c.ExpectLayout != "sharded" && c.ExpectLayout != "flat":
		problem = fmt.Sprintf("Config.ExpectLayout %q (want monolithic, sharded, or flat)", c.ExpectLayout)
	case c.ExpectLayout != "" && dynamic:
		problem = "Config.ExpectLayout applies to static snapshot mode only"
	case c.ExpectShards < 0 || c.QueryCacheEntries < 0:
		problem = "Config.ExpectShards and QueryCacheEntries must be >= 0"
	case ckptArmed && c.WALPath == "":
		problem = "the checkpoint policy requires Config.WALPath (nothing to rotate without a log)"
	case c.CheckpointPath != "" && !dynamic:
		problem = "Config.CheckpointPath requires WALPath or FollowURL"
	case c.Adaptive && c.FollowURL != "":
		problem = "Config.Adaptive is incompatible with FollowURL (a follower serves the primary's sequencing)"
	case !c.Adaptive && (c.AdaptivePoll != 0 || c.AdaptiveDrift != 0 || c.AdaptiveMinInterval != 0):
		problem = "Config.AdaptivePoll, AdaptiveDrift, and AdaptiveMinInterval require Adaptive"
	case c.AdaptiveDrift < 0 || c.AdaptiveDrift > 1:
		problem = "Config.AdaptiveDrift must be in (0, 1]"
	}
	if problem == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrConfig, problem)
}

func (c *Config) applyDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.followMinBackoff <= 0 {
		c.followMinBackoff = 100 * time.Millisecond
	}
	if c.followMaxBackoff <= 0 {
		c.followMaxBackoff = 5 * time.Second
	}
	if c.walPollWait <= 0 {
		c.walPollWait = 25 * time.Second
	}
	if c.checkpointPoll <= 0 {
		c.checkpointPoll = time.Second
	}
	if c.snapshotMaxConcurrent <= 0 {
		c.snapshotMaxConcurrent = 2
	}
	if c.AdaptivePoll <= 0 {
		c.AdaptivePoll = 2 * time.Second
	}
	if c.AdaptiveDrift <= 0 {
		c.AdaptiveDrift = 0.25
	}
	if c.AdaptiveMinInterval <= 0 {
		c.AdaptiveMinInterval = 30 * time.Second
	}
	if c.adaptiveMinSamples <= 0 {
		c.adaptiveMinSamples = 32
	}
	if c.adaptiveDecay <= 0 || c.adaptiveDecay >= 1 {
		c.adaptiveDecay = 0.98
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server serves /query, /stats, /healthz, and /readyz over an atomically
// swappable index snapshot. It implements http.Handler; the caller owns
// the http.Server (or httptest.Server) in front of it.
type Server struct {
	cfg     Config
	swap    *xseq.Swapper      // static mode only
	dyn     *xseq.DynamicIndex // primary and follower modes only
	repl    *replicator        // follower mode only
	ckpt    *checkpointer      // checkpoint policy, when armed
	adapt   *resequencer       // adaptive resequencing, when enabled
	tasks   []*task            // the policies' background loops, started by New
	snapSem chan struct{}      // bounds concurrent /snapshot downloads
	gate    *gate
	dr      *drainer
	handler http.Handler
	started time.Time

	// baseCtx is cancelled to abort every in-flight query once the drain
	// budget is exhausted, and by Close to stop the background tasks.
	baseCtx context.Context
	cancel  context.CancelFunc

	// Telemetry: the registry every metric surfaces through (/metrics and
	// the computed /stats sections read the same state). The four counters
	// are registry-native; latency histograms register lazily per layout.
	reg         *telemetry.Registry
	queries     *telemetry.Counter
	queryErrors *telemetry.Counter
	inserts     *telemetry.Counter
	insertErrs  *telemetry.Counter
	shardLat    *telemetry.Histogram
	patterns    *telemetry.TopK
	latMu       sync.Mutex
	latency     map[string]*telemetry.Histogram
	traceMu     sync.Mutex // serializes Config.TraceLog writes

	// publishMu serializes Reload with the adaptive rebuild's publish, so a
	// rebuild never reverts a reload that replaced its base snapshot.
	publishMu sync.Mutex

	mu             sync.Mutex
	loadedAt       time.Time
	snapMTime      time.Time // IndexPath mtime at last successful load
	snapSize       int64
	reloads        int
	reloadFailures int
	lastReloadErr  error

	// testHookAdmitted, when set, runs after admission with the query's
	// context — tests use it to hold slots deterministically.
	testHookAdmitted func(ctx context.Context)
}

// New builds a Server in the mode cfg selects: a static snapshot server
// (IndexPath), a durable dynamic primary (WALPath), or a follower replica
// (FollowURL). A static server never starts without a valid snapshot (later
// reload failures degrade instead); a primary never starts over a WAL it
// cannot replay. A Config that breaks the mode rules fails with an error
// matching ErrConfig.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	ckptArmed := cfg.CheckpointEveryEntries > 0 || cfg.CheckpointEveryBytes > 0
	if cfg.CheckpointPath == "" && cfg.WALPath != "" && (ckptArmed || cfg.FollowURL != "") {
		// Armed primaries need somewhere to write; durable followers need
		// somewhere to keep a downloaded seed across restarts.
		cfg.CheckpointPath = cfg.WALPath + ".ckpt"
	}
	s := &Server{
		cfg:     cfg,
		gate:    newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		dr:      &drainer{},
		started: time.Now(),
	}
	s.initTelemetry()
	switch {
	case cfg.FollowURL != "" || cfg.WALPath != "":
		// A checkpoint on disk seeds the index before WAL replay: its index
		// becomes the main index as it is, and replay supplies everything
		// newer. Entries the checkpoint already covers are skipped.
		var ckpt *xseq.Index
		var seeded int
		var seedErr error
		if cfg.CheckpointPath != "" {
			if _, statErr := os.Stat(cfg.CheckpointPath); statErr == nil {
				ix, err := openSnapshot(cfg.CheckpointPath, false)
				if err == nil {
					if err = checkShards(cfg.ExpectShards, ix); err == nil {
						// Asking for no documents only checks that the
						// corpus was kept.
						_, err = ix.FetchDocuments(nil)
						seeded = ix.Stats().Documents
					}
				}
				if err != nil {
					seedErr = fmt.Errorf("checkpoint %s: %w", cfg.CheckpointPath, err)
				} else {
					ckpt = ix
				}
			}
		}
		dcfg := xseq.Config{
			Shards:            cfg.ExpectShards,
			QueryCacheEntries: cfg.QueryCacheEntries,
			KeepDocuments:     ckptArmed || cfg.CheckpointPath != "",
			WALPath:           cfg.WALPath,
			WALStrict:         cfg.WALStrict,
			WALSyncWindow:     cfg.WALSyncWindow,
		}
		var dyn *xseq.DynamicIndex
		var err error
		if ckpt != nil {
			dyn, err = xseq.ResumeDynamic(ckpt, dcfg, 0)
		} else {
			dyn, err = xseq.BuildDynamic(nil, dcfg, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("server: dynamic index: %w", err)
		}
		if ckpt != nil {
			cfg.Logf("server: adopted checkpoint %s as the main index (%d documents)", cfg.CheckpointPath, seeded)
		}
		if seedErr != nil {
			if st := dyn.WALStats(); st != nil && st.BaseSeq > 0 {
				// The log was rotated against that checkpoint: replay alone
				// cannot reconstruct the entries the rotation dropped.
				// Starting anyway would silently serve a truncated corpus.
				dyn.Close()
				return nil, fmt.Errorf("server: wal %s was rotated against an unreadable checkpoint: %w", cfg.WALPath, seedErr)
			}
			// The log still holds history from seq 1; replay recovered
			// everything and the bad checkpoint will be overwritten.
			cfg.Logf("server: ignoring unreadable checkpoint (wal replay covers full history): %v", seedErr)
		}
		s.dyn = dyn
		if st := dyn.WALStats(); st != nil && st.ReplayedEntries > 0 {
			cfg.Logf("server: wal %s replayed %d entries to seq %d (truncated %d torn bytes)",
				st.Path, st.ReplayedEntries, st.LastSeq, st.ReplayTruncatedBytes)
		}
		if ckptArmed {
			s.ckpt = newCheckpointer(s)
			if ckpt != nil {
				if st := dyn.WALStats(); st != nil {
					s.ckpt.seed(cfg.CheckpointPath, st.BaseSeq)
				}
			}
		}
		s.snapSem = make(chan struct{}, cfg.snapshotMaxConcurrent)
	default:
		ix, err := openSnapshot(cfg.IndexPath, cfg.ExpectLayout == xseq.LayoutFlat)
		if err != nil {
			return nil, fmt.Errorf("server: initial snapshot: %w", err)
		}
		if err := prepareSnapshot(&cfg, ix); err != nil {
			_ = ix.Close()
			return nil, fmt.Errorf("server: initial snapshot: %w", err)
		}
		if cfg.Adaptive {
			// Re-sequenced rebuilds need the corpus: fail fast at startup
			// rather than on the first triggered rebuild.
			if _, err := ix.FetchDocuments(nil); err != nil {
				_ = ix.Close()
				return nil, fmt.Errorf("server: Config.Adaptive needs a snapshot built with KeepDocuments: %w", err)
			}
		}
		s.swap = xseq.NewSwapper(ix)
		s.loadedAt = time.Now()
		s.snapMTime, s.snapSize = statFile(cfg.IndexPath)
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if cfg.FollowURL != "" {
		s.repl = newReplicator(s)
		s.startTask(s.repl.task)
	}
	if s.ckpt != nil {
		s.startTask(s.ckpt.task)
	}
	if cfg.Adaptive {
		s.adapt = newResequencer(s)
		s.startTask(s.adapt.task)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/wal", s.handleWAL)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	s.handler = recoverMiddleware(cfg.Logf, chaosMiddleware(cfg.Chaos, mux))
	return s, nil
}

// Close releases the server's background resources: it stops the
// background tasks, waiting for any step in progress, and closes the
// dynamic index's write-ahead log. Queries already admitted finish; call
// Drain first for a graceful stop. Idempotent.
func (s *Server) Close() error {
	s.cancel()
	for _, t := range s.tasks {
		<-t.done
	}
	if s.dyn != nil {
		return s.dyn.Close()
	}
	return nil
}

// ServeHTTP dispatches to the route handlers through the chaos (if armed)
// and panic-recovery middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Drain stops admitting queries (readyz flips to 503, /query answers 503)
// and waits for in-flight ones — executing and queued — to finish. If ctx
// expires first, every in-flight query's context is cancelled; the match
// loops poll their contexts, so stragglers unwind promptly and Drain still
// waits for them before returning ctx.Err(). An insert that is running the
// merges or compaction it triggered finishes them first: those builds
// belong to the index and ignore request cancellation. A nil error means
// everything completed within the budget.
func (s *Server) Drain(ctx context.Context) error {
	zero := s.dr.begin()
	select {
	case <-zero:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-zero
		return ctx.Err()
	}
}

// queryResponse is the /query success body.
type queryResponse struct {
	Query     string  `json:"query"`
	Count     int     `json:"count"`
	IDs       []int32 `json:"ids"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter q")
		return
	}
	// Pre-parse so malformed queries are the client's 400, not a 500 —
	// the facade re-parses, but parsing is microseconds against a match.
	// The parsed pattern's canonical String() keys the frequency table.
	pat, err := query.Parse(q)
	if err != nil {
		s.queryErrors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := 0
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", v))
			return
		}
		limit = n
	}
	verify := params.Get("verify") == "1" || params.Get("verify") == "true"

	ctx, adm, ok := s.admit(w, r, params)
	if !ok {
		return
	}
	defer s.release(adm)
	if hook := s.testHookAdmitted; hook != nil {
		hook(ctx)
	}

	// Every query runs traced: the pooled trace feeds the latency
	// histograms, the per-shard span histogram, and the pattern table
	// whether or not a trace log is armed — a pool fetch plus a context
	// value is too cheap to gate behind a flag.
	ix := s.index()
	layout := s.layoutName()
	tr := telemetry.GetTrace()
	qctx := telemetry.WithTrace(ctx, tr)
	start := time.Now()
	var ids []int32
	switch {
	case verify:
		ids, err = ix.QueryVerifiedContext(qctx, q)
	case limit > 0:
		ids, err = ix.QueryLimitContext(qctx, q, limit)
	default:
		ids, err = ix.QueryContext(qctx, q)
	}
	elapsed := time.Since(start)
	s.queries.Add(1)
	status := http.StatusOK
	var errMsg string
	if err != nil {
		s.queryErrors.Add(1)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
			errMsg = fmt.Sprintf("query deadline exceeded after %v", elapsed.Round(time.Millisecond))
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
			errMsg = "query cancelled (drain or client disconnect)"
		case errors.Is(err, xseq.ErrUnsupported):
			status = http.StatusBadRequest
			errMsg = "verify=1 requires a snapshot built with KeepDocuments"
		case errors.Is(err, xseq.ErrQueryTooBroad):
			status = http.StatusBadRequest
			errMsg = err.Error()
		default:
			s.cfg.Logf("server: query %q failed: %v", q, err)
			status = http.StatusInternalServerError
			errMsg = err.Error()
		}
	}
	s.observeQuery(pat, q, layout, elapsed, tr, status, len(ids))
	telemetry.PutTrace(tr)
	if err != nil {
		writeError(w, status, errMsg)
		return
	}
	if ids == nil {
		ids = []int32{}
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Query:     q,
		Count:     len(ids),
		IDs:       ids,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// admission is what an admitted request holds until release: its context's
// cancel and the hook tying that context to the server's drain budget.
type admission struct {
	cancel context.CancelFunc
	stop   func() bool
}

// admit is the preamble /query and /insert share: resolve the deadline
// (?timeout, capped at Config.MaxTimeout, else Config.DefaultTimeout),
// register with the drainer, end the request's context at the first of
// the deadline, the client disconnecting, or the server's drain-budget
// cancellation, and take an admission slot. On failure it has answered —
// 400 for a bad timeout, 503 draining, 429 + Retry-After when overloaded,
// 504 or 503 when the context ends while queued — and released
// everything; on success the caller must release(adm).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, params url.Values) (context.Context, admission, bool) {
	timeout := s.cfg.DefaultTimeout
	if v := params.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", v))
			return nil, admission{}, false
		}
		timeout = min(d, s.cfg.MaxTimeout)
	}
	if !s.dr.enter() {
		w.Header().Set("Retry-After", retryAfterSecs)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, admission{}, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	adm := admission{cancel: cancel, stop: context.AfterFunc(s.baseCtx, cancel)}
	err := s.gate.acquire(ctx)
	if err == nil {
		return ctx, adm, true
	}
	switch {
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", retryAfterSecs)
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission")
	default: // disconnect or drain
		writeError(w, http.StatusServiceUnavailable, "cancelled while queued for admission")
	}
	adm.stop()
	cancel()
	s.dr.exit()
	return nil, admission{}, false
}

// release returns what admit took, in reverse order.
func (s *Server) release(adm admission) {
	s.gate.release()
	adm.stop()
	adm.cancel()
	s.dr.exit()
}

// querier is the query surface every serving mode exposes: a static
// *xseq.Index snapshot or a dynamic *xseq.DynamicIndex.
type querier interface {
	QueryContext(ctx context.Context, q string) ([]int32, error)
	QueryVerifiedContext(ctx context.Context, q string) ([]int32, error)
	QueryLimitContext(ctx context.Context, q string, max int) ([]int32, error)
}

// index returns the serving index for this request: the dynamic index in
// primary/follower mode, the current snapshot otherwise.
func (s *Server) index() querier {
	if s.dyn != nil {
		return s.dyn
	}
	return s.swap.Current()
}

// indexStats snapshots the serving index's shape regardless of mode.
func (s *Server) indexStats() xseq.Stats {
	if s.dyn != nil {
		return s.dyn.Stats()
	}
	return s.swap.Current().Stats()
}

// walStats reports the write-ahead log's condition, nil without a log.
func (s *Server) walStats() *xseq.WALStats {
	if s.dyn == nil {
		return nil
	}
	return s.dyn.WALStats()
}

// mode names the serving mode for stats and health bodies.
func (s *Server) mode() string {
	switch {
	case s.repl != nil:
		return "follower"
	case s.dyn != nil:
		return "primary"
	default:
		return "static"
	}
}

// statsResponse is the /stats body: index shape, admission counters, and
// reload history.
type statsResponse struct {
	Mode  string `json:"mode"` // "static" | "primary" | "follower"
	Index struct {
		Documents          int   `json:"documents"`
		IndexNodes         int   `json:"index_nodes"`
		Links              int   `json:"links"`
		EstimatedDiskBytes int64 `json:"estimated_disk_bytes"`
		// Shards is 0 when the snapshot is monolithic; PerShard then stays
		// empty.
		Shards   int               `json:"shards"`
		PerShard []xseq.ShardStats `json:"per_shard,omitempty"`
	} `json:"index"`
	// Flat is present when the serving snapshot uses the flat layout: the
	// real storage figures — how much of the mapped file queries have
	// actually touched, and the page-level disk-access count.
	Flat *xseq.FlatStats `json:"flat,omitempty"`
	// QueryCache is present only when the server runs with
	// Config.QueryCacheEntries > 0.
	QueryCache *xseq.QueryCacheStats `json:"query_cache,omitempty"`
	Admission  struct {
		MaxConcurrent int   `json:"max_concurrent"`
		MaxQueue      int   `json:"max_queue"`
		Active        int64 `json:"active"`
		Waiting       int64 `json:"waiting"`
		Admitted      int64 `json:"admitted"`
		Rejected      int64 `json:"rejected"`
	} `json:"admission"`
	// Snapshot is present in static mode only.
	Snapshot *snapshotStatus `json:"snapshot,omitempty"`
	// Ingest is present in primary and follower modes.
	Ingest *ingestStat `json:"ingest,omitempty"`
	// Durability is present whenever the index runs over a write-ahead log.
	Durability *xseq.WALStats `json:"durability,omitempty"`
	// Checkpoint is present when the automatic checkpoint policy is armed.
	Checkpoint *checkpointStat `json:"checkpoint,omitempty"`
	// Replication is present in follower mode.
	Replication *replicationStatus `json:"replication,omitempty"`
	// Adaptive is present when online adaptive resequencing is enabled:
	// the live weight vector, the drift against the serving index's
	// sequencing, and the rebuild counters.
	Adaptive *adaptiveStat `json:"adaptive,omitempty"`
	// Latency reports per-layout query latency percentiles computed from
	// the registry's histograms; present once a query has been served.
	Latency map[string]latencyStat `json:"latency,omitempty"`
	// QueryPatterns is the bounded top-K table of canonical pattern
	// frequencies — the observed-workload input the paper's §5 adaptive
	// re-weighting consumes.
	QueryPatterns []telemetry.PatternCount `json:"query_patterns,omitempty"`
	Queries       int64                    `json:"queries"`
	Errors        int64                    `json:"query_errors"`
	UptimeMS      float64                  `json:"uptime_ms"`
	Draining      bool                     `json:"draining"`
}

// ingestStat is the /stats section for dynamic modes: insert counters and
// the compaction pipeline's condition.
type ingestStat struct {
	Inserts             int64  `json:"inserts"`
	InsertErrors        int64  `json:"insert_errors"`
	AppliedSeq          uint64 `json:"applied_seq"`
	Pending             int    `json:"pending"`
	Compactions         int    `json:"compactions"`
	FailedCompactions   int    `json:"failed_compactions"`
	LastCompactionError string `json:"last_compaction_error,omitempty"`
}

// ingestStat collects the dynamic index's insert/compaction condition, nil
// in static mode.
func (s *Server) ingestStat() *ingestStat {
	if s.dyn == nil {
		return nil
	}
	h := s.dyn.Health()
	return &ingestStat{
		Inserts:             s.inserts.Load(),
		InsertErrors:        s.insertErrs.Load(),
		AppliedSeq:          s.dyn.AppliedSeq(),
		Pending:             h.Pending,
		Compactions:         h.Compactions,
		FailedCompactions:   h.FailedCompactions,
		LastCompactionError: h.LastCompactionError,
	}
}

// checkShards enforces Config.ExpectShards against a loaded snapshot.
func checkShards(expect int, ix *xseq.Index) error {
	if expect <= 0 {
		return nil
	}
	if got := ix.Stats().Shards; got != expect {
		if got == 0 {
			return fmt.Errorf("snapshot is monolithic, want %d shards", expect)
		}
		return fmt.Errorf("snapshot has %d shards, want %d", got, expect)
	}
	return nil
}

// checkLayout enforces Config.ExpectLayout against a loaded snapshot.
func checkLayout(expect string, ix *xseq.Index) error {
	if expect == "" {
		return nil
	}
	if got := ix.Layout(); got != expect {
		return fmt.Errorf("snapshot layout is %s, want %s", got, expect)
	}
	return nil
}

// openSnapshot opens the snapshot at path. mapped maps a single-partition
// snapshot in place (xseq.LoadFile: the flat layout, whose bulk sections
// prepareSnapshot verifies); otherwise the file is read into memory and
// verified in full (xseq.Load).
func openSnapshot(path string, mapped bool) (*xseq.Index, error) {
	if mapped {
		return xseq.LoadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xseq.Load(f)
}

// prepareSnapshot validates a freshly loaded static-mode snapshot against
// the configured expectations and instruments it for serving. It must run
// before the snapshot is published; on error the caller closes ix and keeps
// whatever was serving.
func prepareSnapshot(cfg *Config, ix *xseq.Index) error {
	if err := checkShards(cfg.ExpectShards, ix); err != nil {
		return err
	}
	if err := checkLayout(cfg.ExpectLayout, ix); err != nil {
		return err
	}
	// Opening a mapped snapshot verifies only its dictionary head; the full
	// verification runs here so damage in the bulk sections rejects the
	// snapshot up front instead of surfacing mid-query. No-op for the other
	// layouts (their load already verified everything).
	if err := ix.VerifyIntegrity(); err != nil {
		return err
	}
	if cfg.QueryCacheEntries > 0 {
		ix.EnableQueryCache(cfg.QueryCacheEntries)
	}
	// The flat layout serves with page accounting attached, the pool sized
	// to hold every page: /stats then reports how much of the mapped file
	// queries actually touch (resident vs mapped) and the disk-access count.
	// A pool that size selects flat's lock-free touched-page bitmap, so the
	// accounting puts no lock on the probe path.
	if st := ix.Stats(); st.Flat != nil {
		if _, err := ix.EnablePagedIO(int(st.Flat.Pages)); err != nil {
			return err
		}
	}
	return nil
}

type snapshotStatus struct {
	Path            string    `json:"path"`
	LoadedAt        time.Time `json:"loaded_at"`
	Reloads         int       `json:"reloads"`
	ReloadFailures  int       `json:"reload_failures"`
	LastReloadError string    `json:"last_reload_error,omitempty"`
}

func (s *Server) snapshotStatus() snapshotStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := snapshotStatus{
		Path:           s.cfg.IndexPath,
		LoadedAt:       s.loadedAt,
		Reloads:        s.reloads,
		ReloadFailures: s.reloadFailures,
	}
	if s.lastReloadErr != nil {
		st.LastReloadError = s.lastReloadErr.Error()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Mode = s.mode()
	st := s.indexStats()
	resp.Index.Documents = st.Documents
	resp.Index.IndexNodes = st.IndexNodes
	resp.Index.Links = st.Links
	resp.Index.EstimatedDiskBytes = st.EstimatedDiskBytes
	resp.Index.Shards = st.Shards
	resp.Index.PerShard = st.PerShard
	resp.Flat = st.Flat
	resp.QueryCache = st.QueryCache
	resp.Admission.MaxConcurrent = s.cfg.MaxConcurrent
	resp.Admission.MaxQueue = s.cfg.MaxQueue
	resp.Admission.Active = s.gate.active.Load()
	resp.Admission.Waiting = s.gate.waiting.Load()
	resp.Admission.Admitted = s.gate.admitted.Load()
	resp.Admission.Rejected = s.gate.rejected.Load()
	if s.swap != nil {
		snap := s.snapshotStatus()
		resp.Snapshot = &snap
	}
	resp.Ingest = s.ingestStat()
	resp.Durability = s.walStats()
	if s.ckpt != nil {
		resp.Checkpoint = s.ckpt.stat()
	}
	if s.repl != nil {
		resp.Replication = s.repl.status()
	}
	if s.adapt != nil {
		resp.Adaptive = s.adapt.stat()
	}
	resp.Latency = s.latencyStats()
	resp.QueryPatterns = s.patterns.Snapshot()
	resp.Queries = s.queries.Load()
	resp.Errors = s.queryErrors.Load()
	resp.UptimeMS = float64(time.Since(s.started)) / float64(time.Millisecond)
	resp.Draining = s.dr.isDraining()
	writeJSON(w, http.StatusOK, resp)
}

// healthResponse is the /healthz body. The endpoint is liveness plus
// degradation detail: it answers 200 as long as the process can serve at
// all, with status "degraded" (and the reason) when something needs
// attention while reads keep working — a failed snapshot reload (static),
// a failed compaction or a sick WAL (dynamic), an unreachable or
// rotated-away primary (follower). In every degraded state the server
// keeps answering queries over the state it has; degraded is "needs
// attention", not an outage.
type healthResponse struct {
	Status    string `json:"status"` // "ok" | "degraded"
	Mode      string `json:"mode"`
	Documents int    `json:"documents"`
	// Snapshot is present in static mode only.
	Snapshot *snapshotStatus `json:"snapshot,omitempty"`
	// AppliedSeq is present in primary and follower modes: the WAL
	// position the served state reflects.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// WALError is the log's sticky fsync failure: the server still
	// answers queries but refuses inserts.
	WALError string `json:"wal_error,omitempty"`
	// CompactionError is the most recent compaction failure (the index
	// keeps serving and retries).
	CompactionError string `json:"compaction_error,omitempty"`
	// CheckpointError is the most recent automatic-checkpoint failure
	// (serving continues over the unrotated log; the task retries).
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// AdaptiveError is the most recent adaptive-rebuild failure (the old
	// index keeps serving; the task retries).
	AdaptiveError string `json:"adaptive_error,omitempty"`
	// Replication carries the follower's lag and connection condition.
	Replication *replicationStatus `json:"replication,omitempty"`
	Draining    bool               `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:    "ok",
		Mode:      s.mode(),
		Documents: s.indexStats().Documents,
		Draining:  s.dr.isDraining(),
	}
	if s.swap != nil {
		snap := s.snapshotStatus()
		resp.Snapshot = &snap
		if snap.LastReloadError != "" {
			resp.Status = "degraded"
		}
	}
	if s.dyn != nil {
		resp.AppliedSeq = s.dyn.AppliedSeq()
		if h := s.dyn.Health(); h.Degraded {
			resp.CompactionError = h.LastCompactionError
			resp.Status = "degraded"
		}
		if st := s.dyn.WALStats(); st != nil && st.LastError != "" {
			resp.WALError = st.LastError
			resp.Status = "degraded"
		}
	}
	for _, t := range s.tasks {
		_, lastErr := t.health()
		if lastErr != "" {
			resp.Status = "degraded"
		}
		t.report(&resp, lastErr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz reports readiness for traffic: 503 while draining (load
// balancers should stop routing here), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.dr.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// errorResponse is the JSON error body every non-2xx response carries.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// retryAfterSecs is the Retry-After hint every 429 and 503 carries.
const retryAfterSecs = "1"
