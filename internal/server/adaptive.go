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
// Failure containment mirrors the checkpoint loop exactly: a failed
// rebuild is counted, surfaced in /stats and /healthz (degraded), retried
// with capped exponential backoff — and never disturbs serving, because
// the new index only replaces the old one after it is fully built and
// validated.

import (
	"context"
	"sync"
	"time"

	"xseq/internal/adapt"
)

// resequencer runs the adaptive-resequencing policy for one server.
type resequencer struct {
	s    *Server
	done chan struct{}

	mu           sync.Mutex
	weights      map[string]float64 // derived from the live mix at the last poll
	builtWeights map[string]float64 // vector the serving index was built with
	drift        float64            // adapt.Drift(weights, builtWeights)
	samples      int64              // frequency-table mass at the last poll
	rebuilds     int64
	failures     int64
	lastErr      error
	streak       int       // consecutive failures, drives the backoff
	nextTry      time.Time // earliest next attempt after a failure
	lastRebuild  time.Time
	lastDur      time.Duration
}

func newResequencer(s *Server) *resequencer {
	return &resequencer{s: s, done: make(chan struct{})}
}

func (a *resequencer) wait() { <-a.done }

// run polls the query mix every AdaptivePoll and rebuilds when the drift
// policy fires; it exits when ctx (the server's base context) is cancelled.
func (a *resequencer) run(ctx context.Context) {
	defer close(a.done)
	t := time.NewTicker(a.s.cfg.AdaptivePoll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if a.observe() {
			a.rebuild(ctx)
		}
	}
}

// observe ages the frequency table, re-derives the weight vector, updates
// the drift gauge, and reports whether a rebuild is due: drift at or past
// the threshold, a minimum of signal in the table, any failure backoff
// elapsed, and the rate limit between successful rebuilds respected.
func (a *resequencer) observe() bool {
	cfg := &a.s.cfg
	a.s.patterns.Decay(cfg.AdaptiveDecay)
	samples := a.s.patterns.Total()
	w := adapt.DeriveWeights(a.s.patterns.Snapshot(), cfg.AdaptiveBoost)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.weights = w
	a.samples = samples
	a.drift = adapt.Drift(w, a.builtWeights)
	if a.drift < cfg.AdaptiveDrift || samples < int64(cfg.AdaptiveMinSamples) {
		return false
	}
	now := time.Now()
	if now.Before(a.nextTry) {
		return false
	}
	if !a.lastRebuild.IsZero() && now.Sub(a.lastRebuild) < cfg.AdaptiveMinInterval {
		return false
	}
	return true
}

// rebuild re-sequences the serving index around the current weight vector.
// Serving is never disturbed: the old index answers queries throughout, and
// on failure it simply keeps doing so while the policy backs off.
func (a *resequencer) rebuild(ctx context.Context) {
	a.mu.Lock()
	w, drift := a.weights, a.drift
	a.mu.Unlock()

	start := time.Now()
	err := a.doRebuild(ctx, w)

	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown interrupted the rebuild; not a failure
		}
		a.failures++
		a.lastErr = err
		a.streak++
		backoff := a.s.cfg.AdaptivePoll * (1 << min(a.streak, 5))
		if backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
		a.nextTry = time.Now().Add(backoff)
		a.s.cfg.Logf("server: adaptive rebuild failed (retrying in %v): %v", backoff, err)
		return
	}
	a.builtWeights = w
	a.drift = adapt.Drift(a.weights, w)
	a.rebuilds++
	a.lastErr = nil
	a.streak = 0
	a.nextTry = time.Time{}
	a.lastRebuild = time.Now()
	a.lastDur = a.lastRebuild.Sub(start)
	a.s.cfg.Logf("server: adaptive rebuild #%d re-sequenced around %d weighted paths in %v (drift was %.3f)",
		a.rebuilds, len(w), a.lastDur.Round(time.Millisecond), drift)
}

// doRebuild performs the layout-appropriate re-sequenced rebuild.
func (a *resequencer) doRebuild(ctx context.Context, w map[string]float64) error {
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
	// publish it. Readers on the old index are unaffected at every step.
	ix, err := a.s.swap.Current().RebuildWithWeights(ctx, w)
	if err != nil {
		return err
	}
	if err := prepareSnapshot(&a.s.cfg, ix); err != nil {
		_ = ix.Close()
		return err
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
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &adaptiveStat{
		Enabled:        true,
		Drift:          a.drift,
		DriftThreshold: a.s.cfg.AdaptiveDrift,
		Samples:        a.samples,
		Rebuilds:       a.rebuilds,
		Failures:       a.failures,
		Weights:        a.weights,
		BuiltWeights:   a.builtWeights,
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
	}
	if a.lastDur > 0 {
		st.LastRebuildMS = float64(a.lastDur) / float64(time.Millisecond)
	}
	return st
}
