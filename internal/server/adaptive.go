package server

// Online adaptive resequencing — the paper's §5 loop closed under live
// traffic. A background loop turns the served query mix (the /stats
// pattern-frequency table) into the Eq 6 weight vector w(C), measures how
// far the serving index's sequencing has drifted from it, and re-sequences
// the index around the mix when the drift crosses the threshold:
//
//	poll:    decay the frequency table, derive weights, update drift
//	trigger: drift >= threshold, enough samples, past the rate limit
//	rebuild: static mode  — RebuildWithWeights in the background, then
//	         hot-swap via the Swapper; reads never pause
//	         dynamic mode — DynamicIndex.Resequence (compaction-grade
//	         containment: a failure is a counted CompactionError)
//
// The loop is a supervised task (task.go), so a failed rebuild is counted,
// surfaced in /stats and /healthz (degraded), and retried with capped
// backoff — and never disturbs serving, because the new index only
// replaces the old one after it is fully built and validated. A static
// rebuild whose base snapshot a reload replaced meanwhile is discarded.

import (
	"context"
	"errors"
	"sync"
	"time"

	"xseq"
	"xseq/internal/adapt"
	"xseq/internal/telemetry"
)

// errSuperseded reports a static rebuild discarded unpublished because a
// reload replaced the snapshot it was rebuilt from.
var errSuperseded = errors.New("a reload replaced the rebuild's base snapshot")

// resequencer runs the adaptive-resequencing policy for one server.
type resequencer struct {
	s    *Server
	task *task

	mu           sync.Mutex
	weights      map[string]float64 // derived from the live mix at the last poll
	builtWeights map[string]float64 // vector the serving index was built with
	drift        float64            // adapt.Drift(weights, builtWeights)
	samples      int64              // frequency-table mass at the last poll
	rebuilds     int64
	lastRebuild  time.Time
	lastDur      time.Duration
}

func newResequencer(s *Server) *resequencer {
	a := &resequencer{s: s}
	poll := s.cfg.AdaptivePoll
	lo, hi := pollBackoff(poll)
	a.task = &task{
		name: "adaptive rebuild", step: a.step,
		pause: poll, minBackoff: lo, maxBackoff: hi, logf: s.cfg.Logf,
		report: func(h *healthResponse, lastErr string) { h.AdaptiveError = lastErr },
		metrics: func(e *telemetry.Emit) {
			as := a.stat()
			e.Counter("xseq_adaptive_rebuilds_total", "", "Completed adaptive re-sequenced rebuilds.", as.Rebuilds)
			e.Counter("xseq_adaptive_rebuild_failures_total", "", "Failed adaptive rebuild attempts.", as.Failures)
			e.Gauge("xseq_adaptive_drift", "", "Weight-vector drift between the live mix and the serving index.", as.Drift)
		},
	}
	return a
}

// step samples the query mix and rebuilds when the drift policy fires.
func (a *resequencer) step(ctx context.Context) error {
	if !a.observe() {
		return nil
	}
	return a.rebuild(ctx)
}

// observe ages the frequency table, re-derives the weight vector, updates
// the drift gauge, and reports whether a rebuild is due: drift at or past
// the threshold, a minimum of signal in the table, and the rate limit
// between successful rebuilds respected.
func (a *resequencer) observe() bool {
	cfg := &a.s.cfg
	a.s.patterns.Decay(cfg.adaptiveDecay)
	samples := a.s.patterns.Total()
	w := adapt.DeriveWeights(a.s.patterns.Snapshot(), adapt.DefaultBoost)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.weights = w
	a.samples = samples
	a.drift = adapt.Drift(w, a.builtWeights)
	if a.drift < cfg.AdaptiveDrift || samples < int64(cfg.adaptiveMinSamples) {
		return false
	}
	return a.lastRebuild.IsZero() || time.Since(a.lastRebuild) >= cfg.AdaptiveMinInterval
}

// rebuild re-sequences the serving index around the current weight vector.
// Serving is never disturbed: the old index answers queries throughout, and
// on failure it simply keeps doing so while the task backs off.
func (a *resequencer) rebuild(ctx context.Context) error {
	a.mu.Lock()
	w, drift := a.weights, a.drift
	a.mu.Unlock()

	start := time.Now()
	if err := a.doRebuild(ctx, w); errors.Is(err, errSuperseded) {
		// Not a failure: the next poll rebuilds from the new snapshot.
		a.s.cfg.Logf("server: adaptive rebuild discarded: %v", err)
		return nil
	} else if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.builtWeights = w
	a.drift = adapt.Drift(a.weights, w)
	a.rebuilds++
	a.lastRebuild = time.Now()
	a.lastDur = a.lastRebuild.Sub(start)
	a.s.cfg.Logf("server: adaptive rebuild #%d re-sequenced around %d weighted paths in %v (drift was %.3f)",
		a.rebuilds, len(w), a.lastDur.Round(time.Millisecond), drift)
	return nil
}

// doRebuild performs the layout-appropriate re-sequenced rebuild.
func (a *resequencer) doRebuild(ctx context.Context, w map[string]float64) error {
	var base *xseq.Index
	if a.s.swap != nil {
		base = a.s.swap.Current()
	}
	if fail := a.s.cfg.testRebuildFail; fail != nil {
		if err := fail(); err != nil {
			return err
		}
	}
	if a.s.dyn != nil {
		// Dynamic primary: the engine rebuilds in place with compaction's
		// failure containment; the weight vector sticks for later segment
		// builds and compactions.
		return a.s.dyn.Resequence(ctx, w)
	}
	// Static mode: build the re-sequenced index in the background off the
	// retained corpus, validate it like any other snapshot, and only then
	// publish it — unless a reload replaced its base meanwhile, which the
	// rebuild must not revert. Readers on the old index are unaffected at
	// every step.
	ix, err := base.RebuildWithWeights(ctx, w)
	if err != nil {
		return err
	}
	if err := prepareSnapshot(&a.s.cfg, ix); err != nil {
		_ = ix.Close()
		return err
	}
	a.s.publishMu.Lock()
	defer a.s.publishMu.Unlock()
	if a.s.swap.Current() != base {
		_ = ix.Close()
		return errSuperseded
	}
	a.s.swap.Swap(ix)
	return nil
}

// adaptiveStat is the /stats adaptive section.
type adaptiveStat struct {
	Enabled        bool    `json:"enabled"`
	Drift          float64 `json:"drift"`
	DriftThreshold float64 `json:"drift_threshold"`
	// Samples is the decayed mass of the pattern-frequency table — how
	// much recent-workload signal the derived weights rest on.
	Samples  int64 `json:"samples"`
	Rebuilds int64 `json:"rebuilds"`
	Failures int64 `json:"failures"`
	// LastError is the most recent rebuild failure; empty after a success.
	LastError     string  `json:"last_error,omitempty"`
	LastRebuildMS float64 `json:"last_rebuild_ms,omitempty"`
	// Weights is the vector derived from the live mix; BuiltWeights is the
	// one the serving index was re-sequenced with (empty until the first
	// rebuild — the initial build is unweighted).
	Weights      map[string]float64 `json:"weights,omitempty"`
	BuiltWeights map[string]float64 `json:"built_weights,omitempty"`
}

func (a *resequencer) stat() *adaptiveStat {
	failures, lastErr := a.task.health()
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &adaptiveStat{
		Enabled:        true,
		Drift:          a.drift,
		DriftThreshold: a.s.cfg.AdaptiveDrift,
		Samples:        a.samples,
		Rebuilds:       a.rebuilds,
		Failures:       failures,
		LastError:      lastErr,
		Weights:        a.weights,
		BuiltWeights:   a.builtWeights,
	}
	if a.lastDur > 0 {
		st.LastRebuildMS = float64(a.lastDur) / float64(time.Millisecond)
	}
	return st
}
