package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. One process, min(nproc, 2) keep-alive connections,
// requests written and replies scanned by hand: on a 2-core box the client
// shares the CPUs with the server it measures, so it must stay cheap (no
// net/http client, no encoding/json on the hot path). It reports its own CPU
// share so that cost stays visible.

func queryRequest(q string) []byte {
	return []byte("GET /query?q=" + url.QueryEscape(q) + " HTTP/1.1\r\nHost: xseqd\r\n\r\n")
}

func insertRequest(id int32, xml []byte) []byte {
	head := fmt.Sprintf("POST /insert?id=%d HTTP/1.1\r\nHost: xseqd\r\nContent-Length: %d\r\n\r\n", id, len(xml))
	return append([]byte(head), xml...)
}

// conn is one keep-alive HTTP/1.1 connection with reusable buffers.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do writes one request and reads the whole reply. The returned body aliases
// the connection's buffer and is valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	_ = c.c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		} else if v, ok := headerValue(line, "transfer-encoding:"); ok && v == "chunked" {
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err = c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("reply with neither content-length nor chunked encoding")
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// headerValue matches a lower-case header name case-insensitively and
// returns its trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return "", false
	}
	return string(bytes.TrimSpace(line[len(name):])), true
}

// answer is what the scanner extracts from a /query reply.
type answer struct {
	count int    // the body's "count" field
	n     int    // ids listed below split
	xor   uint32 // xor of those ids
	extra []int32
}

// scanAnswer reads `"count":N` and the `"ids":[...]` list without decoding
// JSON. Ids below split feed the count/xor pair; ids at or above it (inserted
// documents) are appended to a.extra. The echoed query string cannot forge
// either key: its quotes arrive escaped.
func scanAnswer(body []byte, split int32, a *answer) bool {
	a.count, a.n, a.xor, a.extra = 0, 0, 0, a.extra[:0]
	i := bytes.Index(body, []byte(`"count":`))
	if i < 0 {
		return false
	}
	i += len(`"count":`)
	digits := 0
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		a.count = a.count*10 + int(body[i]-'0')
		digits++
	}
	if digits == 0 {
		return false
	}
	j := bytes.Index(body[i:], []byte(`"ids":[`))
	if j < 0 {
		return false
	}
	i += j + len(`"ids":[`)
	for i < len(body) && body[i] != ']' {
		var v int32
		digits = 0
		for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
			v = v*10 + int32(body[i]-'0')
			digits++
		}
		if digits == 0 {
			return false
		}
		if v < split {
			a.n++
			a.xor ^= uint32(v)
		} else {
			a.extra = append(a.extra, v)
		}
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return i < len(body)
}

// Operation kinds.
const (
	opQuery  = 0
	opInsert = 1
)

// op is one operation of the seeded sequence.
type op struct {
	kind uint8
	idx  int32 // pool index (query) or reserve index (insert)
}

// plan is the seeded op sequence of one workload plus everything needed to
// check replies. Op i is a pure function of (seed, i), so any run can be
// replayed from the seed alone and two runs with one seed issue the same
// sequence however fast they get through it.
type plan struct {
	seed        uint64
	insertEvery int
	cdf         []float64 // cumulative pattern draw distribution
	pool        []pattern
	inserts     [][]byte // prebuilt insert requests, by reserve index
	baseN       int32
	// state tracks each reserve document: 0 unsent, 1 sent, 2 acknowledged.
	state []atomic.Uint32
}

func newPlan(w *workload, seed int64, pool []pattern, c *corpus) *plan {
	p := &plan{seed: uint64(seed), insertEvery: w.InsertEvery, pool: pool, baseN: c.baseN()}
	weights := make([]float64, len(pool))
	total := 0.0
	for i := range weights {
		weights[i] = 1
		if w.Zipf > 0 {
			weights[i] = 1 / math.Pow(float64(i+1), w.Zipf)
		}
		total += weights[i]
	}
	acc := 0.0
	p.cdf = make([]float64, len(pool))
	for i, wt := range weights {
		acc += wt / total
		p.cdf[i] = acc
	}
	if w.InsertEvery > 0 {
		p.inserts = make([][]byte, len(c.reserve))
		for i, d := range c.reserve {
			p.inserts[i] = insertRequest(d.ID, c.reserveXML[i])
		}
		p.state = make([]atomic.Uint32, len(c.reserve))
	}
	return p
}

// opAt returns operation i, or ok=false once the insert reserve is used up.
func (p *plan) opAt(i int) (o op, ok bool) {
	if p.insertEvery > 0 && i%p.insertEvery == p.insertEvery-1 {
		j := i / p.insertEvery
		if j >= len(p.inserts) {
			return op{}, false
		}
		return op{kind: opInsert, idx: int32(j)}, true
	}
	u := float64(splitmix(p.seed^uint64(i)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	k := sort.SearchFloat64s(p.cdf, u)
	if k >= len(p.pool) {
		k = len(p.pool) - 1
	}
	return op{kind: opQuery, idx: int32(k)}, true
}

// rec is one completed operation as the client saw it.
type rec struct {
	lat  int64 // ns
	late int64 // ns the send ran behind its due time (open loop only)
	kind uint8
	bad  bool
}

// worker drives one connection.
type worker struct {
	c    *conn
	recs []rec
	ans  answer
	must []int32
}

// exec sends op o and checks the reply against the oracle.
func (w *worker) exec(p *plan, o op) (ok bool) {
	if o.kind == opInsert {
		p.state[o.idx].Store(1)
		status, _, err := w.c.do(p.inserts[o.idx])
		if err != nil || status != 200 {
			return false
		}
		p.state[o.idx].Store(2)
		return true
	}
	pat := &p.pool[o.idx]
	// Inserted documents acknowledged before this query was sent must be
	// in the answer; ones merely sent by the time it returns may be.
	w.must = w.must[:0]
	for _, j := range pat.Ins {
		if p.state != nil && p.state[j].Load() == 2 {
			w.must = append(w.must, j)
		}
	}
	status, body, err := w.c.do(pat.req)
	if err != nil || status != 200 {
		return false
	}
	if !scanAnswer(body, p.baseN, &w.ans) {
		return false
	}
	a := &w.ans
	if a.count != a.n+len(a.extra) || a.n != pat.Count || a.xor != pat.Xor {
		return false
	}
	return p.checkInserted(pat, a.extra, w.must)
}

// checkInserted verifies the inserted-document part of an answer: extra is
// ascending ids >= baseN, must the reserve indexes that have to be there.
func (p *plan) checkInserted(pat *pattern, extra, must []int32) bool {
	for _, id := range extra {
		j := id - p.baseN
		k := sort.Search(len(pat.Ins), func(i int) bool { return pat.Ins[i] >= j })
		if k == len(pat.Ins) || pat.Ins[k] != j {
			return false // not a match for this pattern
		}
		if p.state == nil || p.state[j].Load() == 0 {
			return false // never sent
		}
	}
	for _, j := range must {
		id := j + p.baseN
		k := sort.Search(len(extra), func(i int) bool { return extra[i] >= id })
		if k == len(extra) || extra[k] != id {
			return false // acknowledged but missing
		}
	}
	return true
}

// clients is the number of connections: callers of an index server wait for
// their answer, and on this box more clients than cores would measure the
// scheduler.
func clients() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func dialWorkers(addr string, n int) ([]*worker, error) {
	if n > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing %d clients on %d CPUs", n, runtime.NumCPU())
	}
	ws := make([]*worker, n)
	for i := range ws {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		ws[i] = &worker{c: c, recs: make([]rec, 0, 1<<16)}
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.c.close()
	}
}

// phase is the outcome of one load phase.
type phase struct {
	recs      []rec // all workers
	attempted int
	failed    int
	nextOp    int           // first op index not issued
	length    time.Duration // wall time the phase ran
	backlog   int64         // open loop: most requests overdue at once
}

// closedLoop runs the op sequence from op index `from` for d, or until
// maxOps operations are issued if maxOps > 0: each worker sends its next
// request when the previous reply is fully read. It stops earlier only if the
// insert reserve runs out.
func closedLoop(p *plan, ws []*worker, from int, d time.Duration, maxOps int) phase {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		w.recs = w.recs[:0]
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				i := int(next.Add(1) - 1)
				o, ok := p.opAt(i)
				if !ok || maxOps > 0 && i >= from+maxOps {
					next.Add(-1)
					return
				}
				good := w.exec(p, o)
				t1 := time.Now()
				w.recs = append(w.recs, rec{lat: int64(t1.Sub(t0)), kind: o.kind, bad: !good})
			}
		}(w)
	}
	wg.Wait()
	return collect(ws, int(next.Load()), time.Since(start), 0)
}

// openLoop issues ops at a fixed rate for d on an absolute schedule: op k is
// due at start + k/rate whatever happened to earlier ones, and its latency
// runs from that due time, so a stall charges every request it delayed.
func openLoop(p *plan, ws []*worker, from int, rate float64, d time.Duration) phase {
	var next, maxBacklog atomic.Int64
	total := int64(rate * d.Seconds())
	gap := float64(time.Second) / rate
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		w.recs = w.recs[:0]
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= total || time.Since(start) > d+d/2 {
					// Done, or so far behind schedule that finishing
					// would take half as long again: stop issuing.
					return
				}
				o, ok := p.opAt(from + int(k))
				if !ok {
					return
				}
				due := start.Add(time.Duration(float64(k) * gap))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				overdue := int64(float64(sent.Sub(start))/gap) - k
				for {
					cur := maxBacklog.Load()
					if overdue <= cur || maxBacklog.CompareAndSwap(cur, overdue) {
						break
					}
				}
				good := w.exec(p, o)
				t1 := time.Now()
				w.recs = append(w.recs, rec{lat: int64(t1.Sub(due)), late: int64(sent.Sub(due)), kind: o.kind, bad: !good})
			}
		}(w)
	}
	wg.Wait()
	issued := next.Load()
	if issued > total {
		issued = total
	}
	return collect(ws, from+int(issued), time.Since(start), maxBacklog.Load())
}

func collect(ws []*worker, nextOp int, length time.Duration, backlog int64) phase {
	ph := phase{nextOp: nextOp, length: length, backlog: backlog}
	for _, w := range ws {
		ph.recs = append(ph.recs, w.recs...)
	}
	ph.attempted = len(ph.recs)
	for _, r := range ph.recs {
		if r.bad {
			ph.failed++
		}
	}
	return ph
}

// loadStats are the timing metrics of the timed part, each taken over the
// whole of it: the count over its length, and percentiles over every query
// (or insert) it completed. With thousands of queries a second the p99 has
// hundreds of samples beyond it.
type loadStats struct {
	opsPerS  float64
	p50, p99 float64 // query latency, ms
	queries  int     // samples behind p50 and p99
	insP50   float64 // insert latency, ms (0 without inserts)
	insP95   float64
}

func summarise(ph phase) loadStats {
	var qlat, ilat []float64
	for _, r := range ph.recs {
		if r.kind == opInsert {
			ilat = append(ilat, float64(r.lat)/1e6)
		} else {
			qlat = append(qlat, float64(r.lat)/1e6)
		}
	}
	sort.Float64s(qlat)
	sort.Float64s(ilat)
	return loadStats{
		opsPerS: float64(len(ph.recs)) / ph.length.Seconds(),
		p50:     quantile(qlat, 0.50), p99: quantile(qlat, 0.99), queries: len(qlat),
		insP50: quantile(ilat, 0.50), insP95: quantile(ilat, 0.95),
	}
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
