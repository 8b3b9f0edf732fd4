package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskSupervision pins the loop every background policy runs under:
// the backoff ladder, its reset, Retry-After hints, and shutdown.
func TestTaskSupervision(t *testing.T) {
	const pause, lo, hi = 3 * time.Millisecond, 4 * time.Millisecond, 20 * time.Millisecond
	boom := errors.New("boom")
	hint := func(d time.Duration) error { return &retryAfterError{status: "503 Service Unavailable", after: d} }
	jittered := func(d time.Duration) [2]time.Duration { return [2]time.Duration{d / 2, d + d/2} }
	exactly := func(d time.Duration) [2]time.Duration { return [2]time.Duration{d, d} }
	cases := []struct {
		name  string
		steps []error
		// After the last step: the ladder rung, the bounds of the wait it
		// scheduled, the failure count, and the last error's text.
		rung     time.Duration
		wait     [2]time.Duration
		failures int64
		lastErr  string
	}{
		{"success pauses", []error{nil}, 0, exactly(pause), 0, ""},
		{"first failure waits the minimum", []error{boom}, lo, jittered(lo), 1, "boom"},
		{"backoff doubles", []error{boom, boom, boom}, 4 * lo, jittered(4 * lo), 3, "boom"},
		{"backoff stops at the cap", []error{boom, boom, boom, boom, boom, boom}, hi, jittered(hi), 6, "boom"},
		{"success resets the streak and clears the error", []error{boom, boom, nil}, 0, exactly(pause), 2, ""},
		{"after a reset the ladder restarts", []error{boom, boom, boom, nil, boom}, lo, jittered(lo), 4, "boom"},
		{"hint below the minimum is raised to it", []error{hint(time.Microsecond)}, 0, exactly(lo), 1,
			"primary answered 503 Service Unavailable (retry after 1µs)"},
		{"hint above 30s is capped", []error{hint(time.Hour)}, 0, exactly(backoffCap), 1,
			"primary answered 503 Service Unavailable (retry after 1h0m0s)"},
		{"hint does not escalate the backoff", []error{boom, hint(10 * time.Millisecond), hint(10 * time.Millisecond)},
			lo, exactly(10 * time.Millisecond), 3, "primary answered 503 Service Unavailable (retry after 10ms)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tk := &task{name: "test", pause: pause, minBackoff: lo, maxBackoff: hi, logf: silentLogf}
			var wait time.Duration
			for _, err := range c.steps {
				wait = tk.settle(err)
			}
			failures, lastErr := tk.health()
			if tk.backoff != c.rung || wait < c.wait[0] || wait > c.wait[1] || failures != c.failures || lastErr != c.lastErr {
				t.Fatalf("rung %v, wait %v, failures %d, last error %q; want rung %v, wait in %v, failures %d, last error %q",
					tk.backoff, wait, failures, lastErr, c.rung, c.wait, c.failures, c.lastErr)
			}
		})
	}

	t.Run("shutdown mid-step is not a failure and Close waits for the step", func(t *testing.T) {
		stepping := make(chan struct{})
		var returned atomic.Bool
		tk := &task{name: "test", minBackoff: lo, maxBackoff: hi, logf: silentLogf,
			step: func(ctx context.Context) error {
				close(stepping) // called once: this step lasts until shutdown
				<-ctx.Done()
				time.Sleep(10 * time.Millisecond) // slow to unwind
				returned.Store(true)
				return ctx.Err()
			}}
		s := &Server{}
		s.baseCtx, s.cancel = context.WithCancel(context.Background())
		s.startTask(tk)
		<-stepping
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !returned.Load() {
			t.Fatal("Close returned while the step was still running")
		}
		if failures, lastErr := tk.health(); failures != 0 || lastErr != "" {
			t.Fatalf("cancelled step counted: failures %d, last error %q", failures, lastErr)
		}
	})
}
