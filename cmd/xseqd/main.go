// Command xseqd serves XPath-subset queries, hardened for production
// traffic: admission control sheds overload with 429 + Retry-After instead
// of queueing without bound, every query runs under a deadline wired into
// the index's cancellable match loops, and SIGINT/SIGTERM drains
// gracefully: stop admitting, finish in-flight queries, cancel stragglers
// after the -drain budget.
//
// It runs in one of three modes:
//
//   - Static (-index): serve a saved snapshot. SIGHUP (or -watch mtime
//     polling) hot-reloads it with an atomic swap — a corrupt replacement
//     leaves the old snapshot serving and flips /healthz to "degraded".
//   - Primary (-wal): a dynamic index over a crash-safe write-ahead log.
//     POST /insert acknowledges only after the entry is fsynced; on
//     restart the log replays, so kill -9 loses nothing acknowledged.
//     A torn tail is truncated by default; -wal-strict refuses it with
//     exit code 4 instead. -wal-sync > 0 batches fsyncs (group commit).
//     -checkpoint-every N (entries) or SIZE (e.g. 64MB) arms automatic
//     checkpoints: the log is compacted into a snapshot (-checkpoint,
//     default <wal>.ckpt), rotated, and served on GET /snapshot; restarts
//     seed from the snapshot and replay only the short log tail.
//   - Follower (-follow): tail a primary's log over HTTP and serve
//     read-only replicas of its data. Reconnects with jittered
//     exponential backoff (honouring the primary's Retry-After) and
//     resumes from its own position; add -wal to persist the stream
//     locally and rejoin without a full re-fetch. When the primary has
//     rotated its log past the follower's position, the follower
//     self-heals: it downloads the primary's checkpoint from /snapshot,
//     verifies length and CRC, swaps it in without dropping a single
//     query, and resumes tailing from the snapshot's position.
//
// Endpoints:
//
//	GET  /query?q=/site//person/age[text='32']&limit=10&timeout=2s&verify=1
//	POST /insert?id=7   (primary) body = one XML document; 200 once durable
//	GET  /wal?from=1    (primary) stream framed log entries; long-polls
//	GET  /snapshot      (primary) stream the latest checkpoint; X-Snapshot-Seq/-Crc32
//	GET  /stats         index shape, admission/ingest/durability/replication
//	GET  /healthz       liveness + degradation detail (always 200 while serving)
//	GET  /readyz        503 while draining, 200 otherwise
//
// Usage:
//
//	xseqquery -data corpus.xml -saveindex /var/lib/xseq/corpus.idx
//	xseqd -index /var/lib/xseq/corpus.idx -addr :8080
//	xseqd -wal /var/lib/xseq/ingest.wal -addr :8080          # primary
//	xseqd -follow http://primary:8080 -addr :8081            # follower
//	curl 'localhost:8080/query?q=/rec/title'
//	kill -HUP $(pidof xseqd)    # static mode: pick up a rewritten snapshot
//
// Exit codes: 0 ok, 1 startup/listener failure, 2 usage, 3 startup
// timeout, 4 unrecoverable log or snapshot corruption (notably a torn or
// corrupt WAL under -wal-strict) — scripts can distinguish "retry me"
// from "restore from backup".
//
// The -chaos-* flags arm per-route fault injection on /query (latency,
// errors, panics) for resilience drills; all default to off. -pprof serves
// net/http/pprof and the Prometheus /metrics export on a separate private
// listener (off by default) so profiles and metric scrapes are reachable
// without exposing them on the query port. -trace-log appends one
// structured JSON line per query — trace id, per-shard latency spans,
// fan-out/merge split, kernel counters, cache hit/miss — which
// xseqbench -replay can drive back against a live server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xseq"
	"xseq/internal/faultio"
	"xseq/internal/server"
)

// Exit codes, part of the command's contract (mirrors xseqquery).
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitTimeout = 3
	exitCorrupt = 4
)

// exitCode classifies a startup error: a flag combination server.New
// rejects is usage; corruption (a bad snapshot, or a torn/corrupt WAL under
// -wal-strict) is permanent and gets its own code so supervisors don't
// restart-loop over a log that needs operator attention.
func exitCode(err error) int {
	var walCorrupt *xseq.WALCorruptError
	var snapCorrupt *xseq.CorruptError
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, server.ErrConfig):
		return exitUsage
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitTimeout
	case errors.As(err, &walCorrupt), errors.As(err, &snapCorrupt):
		return exitCorrupt
	default:
		return exitFailure
	}
}

func main() {
	var (
		index    = flag.String("index", "", "index snapshot file to serve (static mode; written by xseqquery -saveindex)")
		addr     = flag.String("addr", ":8080", "listen address")
		maxConc  = flag.Int("max-concurrent", 32, "queries executing at once")
		maxQueue = flag.Int("max-queue", 0, "queries waiting for a slot (0 = 2*max-concurrent); beyond this, 429")
		timeout  = flag.Duration("timeout", 5*time.Second, "default per-query deadline")
		maxTO    = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested ?timeout")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget before in-flight queries are cancelled")
		watch    = flag.Duration("watch", 0, "poll the snapshot file at this interval and hot-reload on change (0 = SIGHUP only)")
		shards   = flag.Int("shards", 0, "require the snapshot (and every reload) to have exactly this many shards (0 = accept any layout)")
		layout   = flag.String("layout", "", "require the snapshot (and every reload) to have this layout: monolithic, sharded, or flat (\"\" = accept any); a single-partition snapshot is mapped under flat, read into memory otherwise")
		workers  = flag.Int("workers", 0, "cap OS threads executing Go code, the parallelism of sharded query fan-out (0 = GOMAXPROCS default)")
		qcache   = flag.Int("query-cache", 0, "cache up to this many query results per snapshot, invalidated on reload (0 = no cache); hit rates in /stats")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060); keep it private — off by default")
		traceLog = flag.String("trace-log", "", "append one structured JSON line per query (trace id, per-shard latency, fan-out/merge split, cache hit/miss) to this file; '-' = stderr")
		topK     = flag.Int("pattern-topk", 0, "track this many hot query patterns in /stats (0 = default 64)")

		adaptive     = flag.Bool("adaptive", false, "let the index tune itself: derive weights from the live query mix and hot-swap a re-sequenced rebuild when drift crosses the threshold; static mode needs a snapshot with retained documents (xseqquery -saveindex keeps them)")
		adaptPoll    = flag.Duration("adaptive-poll", 0, "how often the adaptive loop samples the query mix (0 = default 2s)")
		adaptDrift   = flag.Float64("adaptive-drift", 0, "weight-vector drift in (0,1] that triggers a re-sequenced rebuild (0 = default 0.25)")
		adaptMinIval = flag.Duration("adaptive-min-interval", 0, "rate limit between successful adaptive rebuilds (0 = default 30s)")

		walPath   = flag.String("wal", "", "primary mode: write-ahead log path; inserts are durable and replayed on restart")
		walStrict = flag.Bool("wal-strict", false, "refuse a torn or corrupt WAL tail at startup (exit 4) instead of truncating it")
		walSync   = flag.Duration("wal-sync", 0, "group-commit window: batch WAL fsyncs up to this long (0 = fsync per insert)")
		follow    = flag.String("follow", "", "follower mode: tail this primary's /wal and serve read-only replicas")
		ckptEvery = flag.String("checkpoint-every", "", "checkpoint the WAL once it holds this many entries (e.g. 10000) or bytes (e.g. 64MB); requires -wal")
		ckptPath  = flag.String("checkpoint", "", "checkpoint snapshot path (default <wal>.ckpt); served on GET /snapshot and used to seed restarts")

		chaosLatency      = flag.Duration("chaos-latency", 0, "chaos: latency injected into /query when -chaos-latency-every fires")
		chaosLatencyEvery = flag.Int("chaos-latency-every", 0, "chaos: inject latency into every nth /query (0 = off)")
		chaosErrorEvery   = flag.Int("chaos-error-every", 0, "chaos: fail every nth /query with 500 (0 = off)")
		chaosPanicEvery   = flag.Int("chaos-panic-every", 0, "chaos: panic on every nth /query, contained to a 500 (0 = off)")
	)
	flag.Parse()
	// Mode rules and value ranges are server.New's to enforce (ErrConfig,
	// exit 2); only what never reaches it is checked here.
	ckptEntries, ckptBytes, err := parseCheckpointEvery(*ckptEvery)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xseqd: %v\n", err)
		os.Exit(exitUsage)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "xseqd: -workers must be >= 0")
		os.Exit(exitUsage)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	cfg := server.Config{
		IndexPath:              *index,
		WALPath:                *walPath,
		WALStrict:              *walStrict,
		WALSyncWindow:          *walSync,
		FollowURL:              *follow,
		CheckpointEveryEntries: ckptEntries,
		CheckpointEveryBytes:   ckptBytes,
		CheckpointPath:         *ckptPath,
		MaxConcurrent:          *maxConc,
		MaxQueue:               *maxQueue,
		DefaultTimeout:         *timeout,
		MaxTimeout:             *maxTO,
		ExpectShards:           *shards,
		ExpectLayout:           *layout,
		QueryCacheEntries:      *qcache,
		PatternTopK:            *topK,
		Adaptive:               *adaptive,
		AdaptivePoll:           *adaptPoll,
		AdaptiveDrift:          *adaptDrift,
		AdaptiveMinInterval:    *adaptMinIval,
	}
	if *traceLog != "" {
		if *traceLog == "-" {
			cfg.TraceLog = os.Stderr
		} else {
			f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xseqd: -trace-log: %v\n", err)
				os.Exit(exitFailure)
			}
			defer f.Close()
			cfg.TraceLog = f
		}
	}
	if *chaosLatencyEvery > 0 || *chaosErrorEvery > 0 || *chaosPanicEvery > 0 {
		faults := server.ChaosFaults{}
		if *chaosLatencyEvery > 0 {
			faults.Latency = *chaosLatency
			faults.LatencyOn = faultio.Every(*chaosLatencyEvery)
		}
		if *chaosErrorEvery > 0 {
			faults.ErrorOn = faultio.Every(*chaosErrorEvery)
		}
		if *chaosPanicEvery > 0 {
			faults.PanicOn = faultio.Every(*chaosPanicEvery)
		}
		cfg.Chaos = server.Chaos{"/query": faults}
		log.Printf("xseqd: chaos armed on /query (latency %v every %d, error every %d, panic every %d)",
			*chaosLatency, *chaosLatencyEvery, *chaosErrorEvery, *chaosPanicEvery)
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Printf("xseqd: %v", err)
		os.Exit(exitCode(err))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// -pprof serves the profiling endpoints on their own listener with an
	// explicit mux: nothing is registered on http.DefaultServeMux and the
	// query listener never exposes /debug/pprof. The address should stay
	// private (localhost or an internal interface); a profiler failure is
	// fatal so a typo'd address is caught at startup, not at incident time.
	if *pprofOn != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Prometheus export rides the same private listener: scrapers reach
		// it on the operations port, never the query port.
		mux.Handle("/metrics", srv.MetricsHandler())
		go func() {
			log.Printf("xseqd: pprof on http://%s/debug/pprof/, metrics on http://%s/metrics", *pprofOn, *pprofOn)
			if err := http.ListenAndServe(*pprofOn, mux); err != nil {
				log.Printf("xseqd: pprof listener failed: %v", err)
				os.Exit(1)
			}
		}()
	}

	// SIGHUP hot-reload and -watch polling are snapshot-swap machinery;
	// dynamic modes recover state from the log instead.
	if *index != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				_ = srv.Reload() // failure keeps old snapshot; visible in /healthz
			}
		}()
		watchCtx, stopWatch := context.WithCancel(context.Background())
		defer stopWatch()
		if *watch > 0 {
			go srv.WatchFile(watchCtx, *watch)
		}
	}

	source := *index
	switch {
	case *follow != "":
		source = "follower of " + *follow
		if *walPath != "" {
			source += " (durable: " + *walPath + ")"
		}
	case *walPath != "":
		source = "primary over " + *walPath
		if *ckptEvery != "" {
			source += " (checkpoint every " + *ckptEvery + ")"
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("xseqd: serving %s on %s (admit %d, queue %d, drain budget %v)",
		source, *addr, *maxConc, cfg.MaxQueue, *drain)

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Printf("xseqd: listener failed: %v", err)
		os.Exit(exitFailure)
	case sig := <-term:
		log.Printf("xseqd: %v: draining (budget %v)", sig, *drain)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener while queries drain; Shutdown also waits for
	// handlers, but srv.Drain is the authority on in-flight queries (it
	// cancels stragglers at the budget).
	go func() { _ = httpSrv.Shutdown(dctx) }()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("xseqd: drain budget spent, stragglers cancelled: %v", err)
	} else {
		log.Printf("xseqd: drained cleanly")
	}
	_ = httpSrv.Close()
	// Stop the replication loop (follower) and close the WAL (dynamic
	// modes) only after the drain: acknowledged inserts are already
	// durable, this just releases the file handle cleanly.
	_ = srv.Close()
}

// parseCheckpointEvery parses the -checkpoint-every threshold: a bare
// positive integer counts WAL entries; a KB/MB/GB/B suffix
// (case-insensitive) makes it a byte bound. "" means the policy is off.
func parseCheckpointEvery(s string) (entries int, bytes int64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	upper := strings.ToUpper(strings.TrimSpace(s))
	// Longest suffix first so "64KB" is not parsed as "64K" + "B".
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if num, ok := strings.CutSuffix(upper, u.suffix); ok {
			n, perr := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
			if perr != nil || n <= 0 || n > (1<<62)/u.mult {
				return 0, 0, fmt.Errorf("bad -checkpoint-every %q: want a positive size like 64MB", s)
			}
			return 0, n * u.mult, nil
		}
	}
	n, perr := strconv.Atoi(upper)
	if perr != nil || n <= 0 {
		return 0, 0, fmt.Errorf("bad -checkpoint-every %q: want a positive entry count or a size like 64MB", s)
	}
	return n, 0, nil
}
