package telemetry

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite buckets. Bucket i covers latencies
// up to 1µs·2^i, so the finite range spans 1µs to ~134s; anything slower
// lands in the overflow bucket. The whole histogram is a fixed array of
// (histBuckets+1) int64 counters plus a sum — 240 bytes per instance,
// regardless of how many observations it absorbs. With one histogram per
// layout plus the per-shard one, total histogram memory stays under a
// few kilobytes for the life of the process.
const histBuckets = 27

// Histogram is a lock-free latency histogram with power-of-two bucket
// widths. Observe is a bucket lookup plus two atomic adds — safe from any
// goroutine, never allocating — which is what lets it sit on the query
// path without disturbing the zero-alloc bounds. Quantiles are computed
// at read time by nearest-rank over the bucket counts and are accurate
// to one bucket width (a factor of two), which is the right resolution
// for p50/p95/p99 dashboards and far cheaper than tracking exact samples.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // last slot is the overflow bucket
	sumNS  atomic.Int64
	name   string
	labels string
	help   string
}

// bucketBoundNS returns bucket i's inclusive upper bound in nanoseconds.
func bucketBoundNS(i int) int64 {
	return 1000 << uint(i)
}

// bucketIndex maps a duration to its bucket: the smallest i with
// ns <= 1µs·2^i, or the overflow slot.
func bucketIndex(ns int64) int {
	if ns <= 1000 {
		return 0
	}
	i := bits.Len64(uint64((ns - 1) / 1000))
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one latency sample given in nanoseconds. Negative
// samples (clock weirdness) clamp to zero rather than corrupting a bucket.
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.sumNS.Add(ns)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// QuantileNS estimates the p-quantile (0 < p <= 1) in nanoseconds by
// nearest rank: the upper bound of the bucket containing the ranked
// sample. Returns 0 on an empty histogram. The overflow bucket reports
// twice the last finite bound — an explicit "slower than the scale"
// marker rather than a fabricated precision.
func (h *Histogram) QuantileNS(p float64) int64 {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if float64(rank) < p*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return bucketBoundNS(i)
		}
	}
	return 2 * bucketBoundNS(histBuckets-1)
}

func (h *Histogram) metricName() string { return h.name }

// emit renders the histogram in Prometheus exposition format: cumulative
// le buckets in seconds, then _sum and _count.
func (h *Histogram) emit(e *Emit) {
	e.header(h.name, h.help, "histogram")
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		le := Label("le", formatFloat(float64(bucketBoundNS(i))/1e9))
		e.sample(h.name+"_bucket", joinLabels(h.labels, le), formatInt(cum))
	}
	cum += h.counts[histBuckets].Load()
	e.sample(h.name+"_bucket", joinLabels(h.labels, `le="+Inf"`), formatInt(cum))
	e.sample(h.name+"_sum", h.labels, formatFloat(float64(h.sumNS.Load())/1e9))
	e.sample(h.name+"_count", h.labels, formatInt(cum))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatInt(v int64) string {
	return strconv.FormatInt(v, 10)
}
