package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
)

// Span is one shard's slice of a fanned-out query: which shard ran, how
// many sequence ids it returned, how long its slice took, and the id of
// the request trace it was recorded into. TraceID is stamped by AddSpan
// from the owning trace so a span can never be attributed to the wrong
// request, even when fan-out goroutines from different queries interleave
// on the shared scratch pools.
type Span struct {
	TraceID uint64
	Shard   int32
	Results int32
	DurNS   int64
}

// Trace is the per-request observability carrier and the only one of a
// query's work counters. The server, or QueryExplain, creates one at the
// request boundary (pooled — see GetTrace), attaches it to the query
// context with WithTrace, and every layer it passes through records into
// it: the match kernel adds instance/order/probe counts, the shard fan-out
// appends per-shard spans and the fan-out/merge timing split, and the
// query cache marks hit or miss.
//
// Concurrency: the kernel counters are atomics because a sharded query's
// fan-out goroutines all record into the same trace; spans append under a
// short mutex for the same reason. The fan-out/merge split and the cache
// mark are written by the coordinating goroutine only. Reading (the
// server's observe step) happens after the query has fully joined, so it
// sees a quiescent trace.
type Trace struct {
	// ID is the request's trace id, assigned at the server boundary.
	ID uint64

	instances       atomic.Int64
	orders          atomic.Int64
	linkProbes      atomic.Int64
	entriesScanned  atomic.Int64
	coverChecks     atomic.Int64
	coverRejections atomic.Int64

	cache    atomic.Int32 // 0 untouched, 1 miss, 2 hit
	fanoutNS int64        // coordinating goroutine only
	mergeNS  int64        // coordinating goroutine only

	mu    sync.Mutex
	spans []Span
}

// AddKernel merges one kernel pass's match-loop counters. Safe for
// concurrent use by fan-out goroutines.
func (t *Trace) AddKernel(instances, orders int, linkProbes, entriesScanned, coverChecks, coverRejections int64) {
	t.instances.Add(int64(instances))
	t.orders.Add(int64(orders))
	t.linkProbes.Add(linkProbes)
	t.entriesScanned.Add(entriesScanned)
	t.coverChecks.Add(coverChecks)
	t.coverRejections.Add(coverRejections)
}

// Instances returns the total candidate instances scanned.
func (t *Trace) Instances() int64 { return t.instances.Load() }

// Orders returns the distinct orders in the plans of the queries' instances,
// summed over instances: the query sequences permuting identical-sibling
// groups gives, all searched in one descent per instance.
func (t *Trace) Orders() int64 { return t.orders.Load() }

// LinkProbes returns the total link-table probes.
func (t *Trace) LinkProbes() int64 { return t.linkProbes.Load() }

// EntriesScanned returns the total index entries scanned.
func (t *Trace) EntriesScanned() int64 { return t.entriesScanned.Load() }

// CoverChecks returns the total cover checks performed.
func (t *Trace) CoverChecks() int64 { return t.coverChecks.Load() }

// CoverRejections returns the cover checks that rejected a candidate.
func (t *Trace) CoverRejections() int64 { return t.coverRejections.Load() }

// AddSpan records one shard's slice. Safe for concurrent use.
func (t *Trace) AddSpan(shard, results int32, durNS int64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{TraceID: t.ID, Shard: shard, Results: results, DurNS: durNS})
	t.mu.Unlock()
}

// Spans returns the recorded per-shard spans. The slice aliases the
// trace's internal storage: read it before PutTrace and do not retain it.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// SetCache marks the query-cache outcome for this request.
func (t *Trace) SetCache(hit bool) {
	if hit {
		t.cache.Store(2)
	} else {
		t.cache.Store(1)
	}
}

// CacheState reports "hit", "miss", or "" when no cache was consulted.
func (t *Trace) CacheState() string {
	switch t.cache.Load() {
	case 1:
		return "miss"
	case 2:
		return "hit"
	default:
		return ""
	}
}

// SetFanoutNS records the wall time from fan-out launch to the last
// shard joining. Coordinating goroutine only.
func (t *Trace) SetFanoutNS(ns int64) { t.fanoutNS = ns }

// SetMergeNS records the wall time of the k-way result merge.
// Coordinating goroutine only.
func (t *Trace) SetMergeNS(ns int64) { t.mergeNS = ns }

// FanoutNS returns the recorded fan-out wall time (0 if not sharded).
func (t *Trace) FanoutNS() int64 { return t.fanoutNS }

// MergeNS returns the recorded merge wall time (0 if not sharded).
func (t *Trace) MergeNS() int64 { return t.mergeNS }

// reset clears the trace for reuse, keeping span capacity.
func (t *Trace) reset() {
	t.ID = 0
	t.instances.Store(0)
	t.orders.Store(0)
	t.linkProbes.Store(0)
	t.entriesScanned.Store(0)
	t.coverChecks.Store(0)
	t.coverRejections.Store(0)
	t.cache.Store(0)
	t.fanoutNS = 0
	t.mergeNS = 0
	t.spans = t.spans[:0]
}

var tracePool = sync.Pool{New: func() any { return &Trace{} }}

// GetTrace returns a cleared trace from the pool with a fresh id.
func GetTrace() *Trace {
	t := tracePool.Get().(*Trace)
	t.ID = NextID()
	return t
}

// PutTrace resets t and returns it to the pool. The caller must not use
// t — or any slice obtained from Spans — afterwards.
func PutTrace(t *Trace) {
	t.reset()
	tracePool.Put(t)
}

// idCounter is seeded randomly once so trace ids from different process
// runs don't collide in aggregated logs, then incremented atomically.
var idCounter = func() *atomic.Uint64 {
	var c atomic.Uint64
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		c.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return &c
}()

// NextID returns a process-unique trace id.
func NextID() uint64 {
	return idCounter.Add(1)
}

// IDString renders a trace id as 16 lowercase hex digits.
func IDString(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// ParseID parses the IDString form back to a trace id.
func ParseID(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}

// ctxKey is the context key type for the request trace.
type ctxKey struct{}

// WithTrace attaches t to ctx; every engine layer below retrieves it with
// TraceFrom.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. Engine layers
// treat nil as "telemetry off" and skip all recording.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
