package server

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"xseq/internal/telemetry"
)

// backoffCap bounds every wait a failing task schedules for itself: the
// top of the poll-driven ladders and any Retry-After hint a primary sends
// (a corrupted or hostile header must not park replication).
const backoffCap = 30 * time.Second

// task supervises one background policy of the server: the checkpoint
// round, the adaptive rebuild, follower replication, and the snapshot
// watcher. The policy supplies only step; the task owns the loop around
// it — the pause between successful steps, a capped exponential backoff
// with jitter after failures, the failure count and last error /healthz
// and /metrics report, and the rule that a step the server's shutdown cut
// short is not a failure. A failed step never disturbs serving: every
// policy publishes its result only once it is complete.
type task struct {
	name string // log prefix
	step func(ctx context.Context) error
	// pause is the wait after a successful step (0: the step paces itself).
	// A failure waits minBackoff, doubling per consecutive failure up to
	// maxBackoff, jittered to 50-150 % so a fleet does not retry in step.
	pause, minBackoff, maxBackoff time.Duration
	logf                          func(format string, args ...any)
	// report and metrics add the policy's detail to /healthz (lastErr is
	// the task's last error, "" while healthy) and /metrics; every task
	// Server.startTask runs sets both.
	report  func(h *healthResponse, lastErr string)
	metrics func(e *telemetry.Emit)
	done    chan struct{} // closed once run returns; set by Server.startTask

	mu       sync.Mutex
	failures int64
	lastErr  error
	backoff  time.Duration // current ladder rung; 0 after a success
}

// run steps until ctx ends. The first step runs after one pause.
func (t *task) run(ctx context.Context) {
	for wait := t.pause; sleep(ctx, wait); {
		err := t.step(ctx)
		if ctx.Err() != nil {
			return // shutdown interrupted the step; not a failure
		}
		wait = t.settle(err)
	}
}

// settle records one step's outcome and returns the wait before the next.
// An error carrying a Retry-After hint waits the hint, clamped to
// [minBackoff, backoffCap], and leaves the ladder where it was: the peer
// said when it will have capacity, which is flow control, not a reason to
// back off further.
func (t *task) settle(err error) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		t.lastErr, t.backoff = nil, 0
		return t.pause
	}
	t.failures++
	t.lastErr = err
	var ra *retryAfterError
	if errors.As(err, &ra) {
		t.logf("server: %s: %v", t.name, err)
		return min(max(ra.after, t.minBackoff), backoffCap)
	}
	t.backoff = min(max(2*t.backoff, t.minBackoff), t.maxBackoff)
	t.logf("server: %s failed (retrying in ~%v): %v", t.name, t.backoff, err)
	return t.backoff/2 + rand.N(t.backoff+1)
}

// health returns the failure count and the last error's text, "" after a
// success.
func (t *task) health() (failures int64, lastErr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastErr != nil {
		return t.failures, t.lastErr.Error()
	}
	return t.failures, ""
}

// sleep waits d and reports whether ctx is still live afterwards.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// pollBackoff returns the failure ladder of a policy polled every poll:
// twice the poll, doubling to 32 polls or backoffCap, whichever is less.
func pollBackoff(poll time.Duration) (lo, hi time.Duration) {
	return 2 * poll, min(32*poll, backoffCap)
}

// startTask runs t on the server's base context; Close waits for it.
func (s *Server) startTask(t *task) {
	t.done = make(chan struct{})
	s.tasks = append(s.tasks, t)
	go func() {
		defer close(t.done)
		t.run(s.baseCtx)
	}()
}
