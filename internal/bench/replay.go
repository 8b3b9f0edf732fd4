// Workload replay: drive a recorded query log against a live xseqd at a
// target rate and report achieved throughput plus latency percentiles.
// The log format is one query per line — either plain pattern strings or
// the JSON lines xseqd's -trace-log emits (the "q" field is extracted) —
// with '#' comments ignored, so a production trace can be replayed
// verbatim and a synthetic skewed log (GenerateQueryLog) uses the same
// shape.
package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"xseq/internal/datagen"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

// ErrBadLog reports an unreadable, malformed, or empty query log. The CLI
// maps it to the usage exit code (2): the input is wrong, not the server.
var ErrBadLog = errors.New("bench: bad query log")

// ReadQueryLog parses a query log: one query per line, '#' comments and
// blank lines skipped. Lines starting with '{' are treated as trace-log
// JSON records and must carry a "q" field. Every query must parse as a
// pattern — a log of garbage fails here, before any request is sent.
func ReadQueryLog(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q := line
		if strings.HasPrefix(line, "{") {
			var rec struct {
				Q string `json:"q"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadLog, lineNo, err)
			}
			if rec.Q == "" {
				return nil, fmt.Errorf("%w: line %d: trace record has no q field", ErrBadLog, lineNo)
			}
			q = rec.Q
		}
		if _, err := query.Parse(q); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadLog, lineNo, err)
		}
		out = append(out, q)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no queries", ErrBadLog)
	}
	return out, nil
}

// LoadQueryLog reads a query log file; any failure wraps ErrBadLog.
func LoadQueryLog(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	defer f.Close()
	qs, err := ReadQueryLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return qs, nil
}

// ReplayConfig drives Replay.
type ReplayConfig struct {
	// URL is the xseqd base URL (e.g. "http://127.0.0.1:8080").
	URL string
	// LogPath names the query log; Queries, when non-nil, bypasses it.
	LogPath string
	Queries []string
	// Rate is the target dispatch rate in queries/sec (0: unpaced — as
	// fast as Concurrency workers complete requests).
	Rate float64
	// Concurrency is the worker count (<= 0: 8).
	Concurrency int
	// Loops replays the whole log this many times (<= 0: 1).
	Loops int
	// Timeout caps each request (<= 0: 10s).
	Timeout time.Duration
	// Context bounds the whole run; its deadline error is returned so the
	// CLI can map it to the timeout exit code.
	Context context.Context
}

// ReplayResult is the -json replay summary.
type ReplayResult struct {
	URL          string  `json:"url"`
	Log          string  `json:"log,omitempty"`
	Distinct     int     `json:"distinct_queries"`
	Loops        int     `json:"loops"`
	Queries      int     `json:"queries"`
	Succeeded    int     `json:"succeeded"`
	Failed       int     `json:"failed"`
	Shed         int     `json:"shed"`
	TotalResults int64   `json:"total_results"`
	TargetQPS    float64 `json:"target_qps,omitempty"`
	AchievedQPS  float64 `json:"achieved_qps"`
	DurationNS   int64   `json:"duration_ns"`
	P50NS        int64   `json:"p50_ns"`
	P95NS        int64   `json:"p95_ns"`
	P99NS        int64   `json:"p99_ns"`
}

// Replay loads the log, probes the server, and drives the queries at the
// target rate through a bounded worker pool. Queries counts every request
// attempted — with an intact run it is exactly len(log)·Loops, so two
// replays of the same log report identical query counts. A 429 counts as
// shed (the admission gate doing its job), not failed.
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	queries := cfg.Queries
	if queries == nil {
		var err error
		queries, err = LoadQueryLog(cfg.LogPath)
		if err != nil {
			return nil, err
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%w: no queries", ErrBadLog)
	}
	loops := cfg.Loops
	if loops <= 0 {
		loops = 1
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	reqTimeout := cfg.Timeout
	if reqTimeout <= 0 {
		reqTimeout = 10 * time.Second
	}
	base := strings.TrimSuffix(cfg.URL, "/")
	client := &http.Client{Timeout: reqTimeout}

	// Probe first so an unreachable server is one clean error (the CLI's
	// exit 1), not a thousand failed requests.
	probeCtx, cancelProbe := context.WithTimeout(ctx, reqTimeout)
	defer cancelProbe()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("bench: bad replay URL %q: %w", cfg.URL, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("bench: server %s unreachable: %w", cfg.URL, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()

	type workerStat struct {
		lats    []int64
		ok      int
		failed  int
		shed    int
		results int64
	}
	total := loops * len(queries)
	jobs := make(chan string)
	stats := make([]workerStat, conc)
	var wg sync.WaitGroup
	for wi := 0; wi < conc; wi++ {
		wg.Add(1)
		go func(ws *workerStat) {
			defer wg.Done()
			for q := range jobs {
				t0 := time.Now()
				code, n, err := replayQuery(ctx, client, base, q)
				ws.lats = append(ws.lats, time.Since(t0).Nanoseconds())
				switch {
				case err != nil:
					ws.failed++
				case code == http.StatusOK:
					ws.ok++
					ws.results += int64(n)
				case code == http.StatusTooManyRequests:
					ws.shed++
				default:
					ws.failed++
				}
			}
		}(&stats[wi])
	}

	// The dispatcher paces by absolute schedule (start + n·interval), so a
	// slow burst is caught up instead of compounding drift.
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}
	start := time.Now()
	var ctxErr error
dispatch:
	for n := 0; n < total; n++ {
		if interval > 0 {
			if d := time.Until(start.Add(time.Duration(n) * interval)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					ctxErr = ctx.Err()
					break dispatch
				}
			}
		}
		select {
		case jobs <- queries[n%len(queries)]:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	dur := time.Since(start)
	if ctxErr != nil {
		return nil, fmt.Errorf("bench: replay aborted: %w", ctxErr)
	}

	res := &ReplayResult{
		URL:        cfg.URL,
		Log:        cfg.LogPath,
		Distinct:   distinctQueries(queries),
		Loops:      loops,
		Queries:    total,
		TargetQPS:  cfg.Rate,
		DurationNS: dur.Nanoseconds(),
	}
	var lats []int64
	for i := range stats {
		ws := &stats[i]
		res.Succeeded += ws.ok
		res.Failed += ws.failed
		res.Shed += ws.shed
		res.TotalResults += ws.results
		lats = append(lats, ws.lats...)
	}
	if secs := dur.Seconds(); secs > 0 {
		res.AchievedQPS = float64(total) / secs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50NS = percentileNS(lats, 50)
	res.P95NS = percentileNS(lats, 95)
	res.P99NS = percentileNS(lats, 99)
	return res, nil
}

// replayQuery issues one /query request; a non-200 drains and discards
// the body so the connection can be reused.
func replayQuery(ctx context.Context, client *http.Client, base, q string) (code, count int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, 0, nil
	}
	var body struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return resp.StatusCode, 0, err
	}
	return resp.StatusCode, body.Count, nil
}

// percentileNS reads the p-th percentile from a sorted latency slice
// (nearest-rank).
func percentileNS(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func distinctQueries(qs []string) int {
	seen := make(map[string]bool, len(qs))
	for _, q := range qs {
		seen[q] = true
	}
	return len(seen)
}

// LogGenConfig drives GenerateQueryLog.
type LogGenConfig struct {
	// Dataset and Records shape the corpus the patterns are extracted
	// from — use the same values the served snapshot was built with so the
	// replayed queries hit real paths.
	Dataset string
	Records int
	// Queries is the number of log lines to write (<= 0: 100).
	Queries int
	// QuerySize is the pattern node count (<= 0: 3).
	QuerySize int
	// Skew > 1 draws patterns from a Zipf distribution with that exponent
	// (hot patterns repeat, like production traffic); <= 1 draws uniformly.
	Skew float64
	// Seed fixes corpus generation and sampling (0: 42).
	Seed int64
}

// scaleCorpus generates the named corpus.
func scaleCorpus(name string, n int, seed int64) ([]*xmltree.Document, error) {
	switch name {
	case "", "xmark":
		_, docs, err := datagen.XMark(datagen.XMarkOptions{Seed: seed}, n)
		return docs, err
	case "dblp":
		_, docs, err := datagen.DBLP(datagen.DBLPOptions{Seed: seed}, n)
		return docs, err
	default:
		p, err := datagen.ParseSynthName(name)
		if err != nil {
			return nil, err
		}
		p.Seed = seed
		_, docs, err := datagen.Synth(p, n)
		return docs, err
	}
}

// GenerateQueryLog writes a synthetic query log: a pool of distinct
// patterns extracted from a deterministic corpus, sampled with the
// configured skew. Returns the number of query lines written. The whole
// log is a pure function of the config, so a replay of a generated log is
// reproducible end to end.
func GenerateQueryLog(w io.Writer, cfg LogGenConfig) (int, error) {
	records := cfg.Records
	if records <= 0 {
		records = 1000
	}
	nq := cfg.Queries
	if nq <= 0 {
		nq = 100
	}
	size := cfg.QuerySize
	if size <= 0 {
		size = 3
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	docs, err := scaleCorpus(cfg.Dataset, records, seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := randomQueries(rng, docs, size, 64)
	seen := make(map[string]bool, len(pool))
	var canon []string
	for _, p := range pool {
		s := p.String()
		if !seen[s] {
			seen[s] = true
			canon = append(canon, s)
		}
	}
	if len(canon) == 0 {
		return 0, fmt.Errorf("bench: could not extract any patterns from dataset %q", cfg.Dataset)
	}
	if _, err := fmt.Fprintf(w, "# xseq query log: dataset=%s records=%d patterns=%d skew=%g seed=%d\n",
		cfg.Dataset, records, len(canon), cfg.Skew, seed); err != nil {
		return 0, err
	}
	var pick func() string
	if cfg.Skew > 1 {
		z := rand.NewZipf(rng, cfg.Skew, 1, uint64(len(canon)-1))
		pick = func() string { return canon[z.Uint64()] }
	} else {
		pick = func() string { return canon[rng.Intn(len(canon))] }
	}
	for i := 0; i < nq; i++ {
		if _, err := fmt.Fprintln(w, pick()); err != nil {
			return i, err
		}
	}
	return nq, nil
}
