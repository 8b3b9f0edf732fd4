// Package telemetry is the unified measurement substrate shared by every
// engine layer: a registry of atomic counters and lock-free latency
// histograms, pooled per-request trace carriers threaded through query
// contexts, a bounded top-K table of query-pattern frequencies, and a
// hand-rolled Prometheus text-format exporter.
//
// The package is a leaf: it imports only the standard library, so the
// kernel packages (index, flat, shard, qcache) and the server can all
// depend on it without cycles. Everything on the hot path — counter
// increments, histogram observations, kernel-stat recording on a trace —
// is a handful of atomic operations and never allocates; the only locks
// are a short mutex around span append (shard fan-out goroutines record
// concurrently) and around the top-K table (off the kernel path, touched
// once per served query).
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can render in Prometheus text format.
type metric interface {
	metricName() string
	emit(e *Emit)
}

// Registry holds the process's metrics and renders them as Prometheus
// text format (version 0.0.4). Counters and histograms register at
// construction; subsystems whose counters live elsewhere (the admission
// gate, the WAL, the pager) register collector callbacks that read their
// existing stat structs at scrape time — the /stats JSON sections keep
// their shape, and /metrics is derived from the same numbers.
type Registry struct {
	mu         sync.Mutex
	metrics    []metric
	collectors []func(e *Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// NewCounter creates and registers a monotonically increasing counter.
// labels is a pre-rendered Prometheus label list without braces (e.g.
// `layout="flat"`), empty for none.
func (r *Registry) NewCounter(name, labels, help string) *Counter {
	c := &Counter{name: name, labels: labels, help: help}
	r.register(c)
	return c
}

// NewHistogram creates and registers a latency histogram (see
// Histogram for the bucket layout and memory bound).
func (r *Registry) NewHistogram(name, labels, help string) *Histogram {
	h := &Histogram{name: name, labels: labels, help: help}
	r.register(h)
	return h
}

// RegisterCollector adds a scrape-time callback: it receives an Emit and
// writes gauge/counter samples for state owned elsewhere.
func (r *Registry) RegisterCollector(fn func(e *Emit)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// WritePrometheus renders every registered metric and collector in
// Prometheus text format. Native metrics are grouped by family name so
// label variants of the same family (per-layout histograms registered
// lazily) stay consecutive, as the exposition format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	collectors := make([]func(e *Emit), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var order []string
	families := make(map[string][]metric)
	for _, m := range metrics {
		name := m.metricName()
		if _, ok := families[name]; !ok {
			order = append(order, name)
		}
		families[name] = append(families[name], m)
	}
	e := &Emit{w: w, seen: make(map[string]bool)}
	for _, name := range order {
		for _, m := range families[name] {
			m.emit(e)
		}
	}
	for _, fn := range collectors {
		fn(e)
	}
	return e.err
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v      atomic.Int64
	name   string
	labels string
	help   string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) emit(e *Emit) {
	e.Counter(c.name, c.labels, c.help, c.v.Load())
}

// Emit renders individual samples in Prometheus text format. HELP/TYPE
// headers are written once per family name; errors are sticky and
// surfaced by WritePrometheus.
type Emit struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// Counter writes one counter sample.
func (e *Emit) Counter(name, labels, help string, v int64) {
	e.header(name, help, "counter")
	e.sample(name, labels, fmt.Sprintf("%d", v))
}

// Gauge writes one gauge sample.
func (e *Emit) Gauge(name, labels, help string, v float64) {
	e.header(name, help, "gauge")
	e.sample(name, labels, formatFloat(v))
}

func (e *Emit) header(name, help, typ string) {
	if e.seen[name] {
		return
	}
	e.seen[name] = true
	if help != "" {
		e.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	e.printf("# TYPE %s %s\n", name, typ)
}

func (e *Emit) sample(name, labels, value string) {
	if labels == "" {
		e.printf("%s %s\n", name, value)
		return
	}
	e.printf("%s{%s} %s\n", name, labels, value)
}

func (e *Emit) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Label renders one key="value" pair with value escaping, for composing
// the labels argument of NewCounter/NewHistogram/Emit calls.
func Label(key, value string) string {
	var b strings.Builder
	b.WriteString(key)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteString(`"`)
	return b.String()
}
