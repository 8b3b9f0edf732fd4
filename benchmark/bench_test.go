package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"xseq"
	"xseq/internal/xmltree"
)

// BENCHMARK.json at the repo root is what --spec prints, and what it lists
// stays inside the limits the driver checks before a single run.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from what --spec prints; regenerate it with\n\tsh benchmark/run.sh --spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, '_', '.', '-' starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", s)
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", m.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// smokePool builds the smoke-scale corpus and pool of a workload in process.
func smokePool(t *testing.T, w *workload, seed int64) (*corpus, []pattern) {
	t.Helper()
	c, err := generate(w.Corpus, seed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	xml := c.xml
	if w.InsertEvery > 0 {
		xml = append(append([][]byte{}, c.xml...), c.reserveXML...)
	}
	docs, err := parseAll(xml, 0)
	if err != nil {
		t.Fatal(err)
	}
	screen, err := xseq.Build(docs, xseq.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, options: options{sc: smokeScale}}
	pool, err := buildPool(w.Pool, r.poolSize(), seed, c, screen, w.InsertEvery > 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool
}

// The same seed gives the same inputs: corpus bytes, pool, oracle and op
// sequence; another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.Name == "flat_twig" {
			continue // byte-identical to mono_twig by construction, checked below
		}
		c1, p1 := smokePool(t, w, 7)
		c2, p2 := smokePool(t, w, 7)
		if !reflect.DeepEqual(c1.xml, c2.xml) || !reflect.DeepEqual(c1.reserveXML, c2.reserveXML) {
			t.Errorf("%s: corpus differs between two generations from one seed", w.Name)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("%s: pool or oracle differs between two builds from one seed", w.Name)
		}
		plan1, plan2 := newPlan(w, 7, p1, c1), newPlan(w, 7, p2, c2)
		other := newPlan(w, 8, p1, c1)
		same := true
		for i := 0; i < 5000; i++ {
			a, okA := plan1.opAt(i)
			b, okB := plan2.opAt(i)
			if a != b || okA != okB {
				t.Fatalf("%s: op %d differs between two plans from one seed", w.Name, i)
			}
			if o, _ := other.opAt(i); o != a {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 issue the same op sequence", w.Name)
		}
		_, p3 := smokePool(t, w, 8)
		if reflect.DeepEqual(p1, p3) {
			t.Errorf("%s: seeds 7 and 8 give the same pool", w.Name)
		}
	}
	mono, flat := findWorkload("mono_twig"), findWorkload("flat_twig")
	if mono.Corpus != flat.Corpus || mono.Pool != flat.Pool || mono.Zipf != flat.Zipf || mono.InsertEvery != flat.InsertEvery {
		t.Errorf("flat_twig must issue mono_twig's op sequence over mono_twig's corpus")
	}
}

// Every pool slot honours its band and shape.
func TestPoolBands(t *testing.T) {
	for _, name := range []string{"mono_twig", "sharded_scan", "dynamic_rw"} {
		w := findWorkload(name)
		c, pool := smokePool(t, w, 42)
		for k, p := range pool {
			want := wantFor(w.Pool, k, len(c.docs))
			if p.Count < want.minCount || p.Count > want.maxCount {
				t.Errorf("%s slot %d %q: oracle count %d outside [%d, %d]", name, k, p.Text, p.Count, want.minCount, want.maxCount)
			}
			if want.star != strings.Contains(p.Text, "*") {
				t.Errorf("%s slot %d %q: '*' step wanted %v", name, k, p.Text, want.star)
			}
			if want.slash && !strings.Contains(p.Text, "//") {
				t.Errorf("%s slot %d %q: '//' axis wanted", name, k, p.Text)
			}
		}
	}
}

// Every work band gets exactly its share of the slots, and a twig that
// branches over identical siblings is never asked to probe little.
func TestWorkBandShares(t *testing.T) {
	count := func(pool string, slots int) map[band]int {
		got := map[band]int{}
		for k := 0; k < slots; k++ {
			w := wantFor(pool, k, 10000)
			got[w.work]++
			if w.siblings && w.work == workBands['a'] {
				t.Errorf("%s slot %d branches over siblings and asks for band a", pool, k)
			}
		}
		return got
	}
	twig := count("twig", 1000)
	for letter, want := range map[byte]int{'a': 460, 'b': 260, 'c': 195, 'd': 65, 'e': 20} {
		if got := twig[workBands[letter]]; got != want {
			t.Errorf("twig band %c: %d of 1000 slots, want %d", letter, got, want)
		}
	}
	scan := count("scan", 64)
	for letter, want := range map[byte]int{'s': 32, 't': 16, 'u': 12, 'v': 4} {
		if got := scan[workBands[letter]]; got != want {
			t.Errorf("scan band %c: %d of 64 slots, want %d", letter, got, want)
		}
	}
}

// The oracle runs over the generator's trees while the server parses their
// serialisation: the two must be the same trees.
func TestSerialisationRoundTrips(t *testing.T) {
	for _, kind := range []string{"xmark", "dblp"} {
		c, err := generate(kind, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range c.xml {
			root, err := xmltree.Parse(bytes.NewReader(b), xmltree.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(root, c.docs[i].Root) {
				t.Fatalf("%s document %d does not survive WriteXML + Parse", kind, i)
			}
		}
	}
}

func TestScanAnswer(t *testing.T) {
	var a answer
	body := []byte(`{"query":"//a[text='\"ids\":[9]']","count":4,"ids":[1,2,1000,1003],"elapsed_ms":0.1}`)
	if !scanAnswer(body, 1000, &a) {
		t.Fatal("scanAnswer rejected a well-formed reply")
	}
	if a.count != 4 || a.n != 2 || a.xor != 1^2 || !reflect.DeepEqual(a.extra, []int32{1000, 1003}) {
		t.Errorf("scanAnswer = %+v", a)
	}
	if !scanAnswer([]byte(`{"query":"q","count":0,"ids":[],"elapsed_ms":0}`), 10, &a) || a.count != 0 || a.n != 0 {
		t.Errorf("empty id list: %+v", a)
	}
	for _, bad := range []string{`{"error":"x"}`, `{"count":1,"ids":[1`, `{"count":,"ids":[]}`} {
		if scanAnswer([]byte(bad), 10, &a) {
			t.Errorf("scanAnswer accepted %q", bad)
		}
	}
}

func TestCheckInserted(t *testing.T) {
	w := findWorkload("dynamic_rw")
	c := &corpus{docs: make([]*xmltree.Document, 100), reserve: make([]*xmltree.Document, 8), reserveXML: make([][]byte, 8)}
	for i := range c.reserve {
		c.reserve[i] = &xmltree.Document{ID: int32(100 + i)}
	}
	pat := pattern{Ins: []int32{1, 3, 5}}
	p := newPlan(w, 1, []pattern{pat}, c)
	p.state[1].Store(2)
	p.state[3].Store(1)
	for _, tc := range []struct {
		extra, must []int32
		ok          bool
	}{
		{[]int32{101}, []int32{1}, true},
		{[]int32{101, 103}, []int32{1}, true},  // sent but unacknowledged may be there
		{nil, []int32{1}, false},               // acknowledged but missing
		{[]int32{101, 105}, []int32{1}, false}, // never sent
		{[]int32{101, 102}, []int32{1}, false}, // does not match the pattern
	} {
		if got := p.checkInserted(&p.pool[0], tc.extra, tc.must); got != tc.ok {
			t.Errorf("checkInserted(extra %v, must %v) = %v, want %v", tc.extra, tc.must, got, tc.ok)
		}
	}
}

// runSmoke runs workloads end to end at the smoke scale and returns the
// result each printed as its last line.
func runSmoke(t *testing.T, names []string, o options) (results map[string]result, allCorrect bool) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	o.smoke, o.sc = true, smokeScale
	if o.seconds == 0 {
		o.seconds = 1
	}
	results = map[string]result{}
	allCorrect = true
	for _, name := range names {
		var out bytes.Buffer
		ok, err := runAll(&out, root, []*workload{findWorkload(name)}, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allCorrect = allCorrect && ok
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
			t.Fatalf("%s: last line is not a JSON object: %v", name, err)
		}
		if len(keys) != 4 {
			t.Errorf("%s: last line has keys %v, want exactly correct, attempted, failed, metrics", name, keys)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	return results, allCorrect
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// An untraced run prints every end-to-end metric, none of them zero, and
// answers everything correctly; so does another seed.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs xseqd")
	}
	for _, seed := range []int64{42, 7} {
		results, ok := runSmoke(t, workloadNames(), options{seed: seed})
		if !ok {
			t.Errorf("seed %d: a workload answered incorrectly", seed)
		}
		for name, res := range results {
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("seed %d %s: attempted %d failed %d correct %v", seed, name, res.Attempted, res.Failed, res.Correct)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("seed %d %s: %d metrics, want %d", seed, name, len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("seed %d %s: metric %s = %+v (present %v), want a positive value in %s", seed, name, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// A traced run prints every per-layer metric, writes one trace file per
// workload, and the predictions the workloads were built on hold.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs xseqd")
	}
	results, ok := runSmoke(t, workloadNames(), options{seed: 42, trace: true, seconds: 2})
	if !ok {
		t.Errorf("a workload answered incorrectly")
	}
	for name, res := range results {
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", name, m.Name, got, ok, m.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join("out", "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
		v := func(metric string) float64 { return res.Metrics[metric].Value }
		if v("flat.search_vs_index") <= 1 {
			t.Errorf("%s: flat.search_vs_index = %v, predicted > 1", name, v("flat.search_vs_index"))
		}
		if v("engine.delta_docs_per_insert") <= 1 {
			t.Errorf("%s: engine.delta_docs_per_insert = %v, predicted > 1", name, v("engine.delta_docs_per_insert"))
		}
		if name == "dynamic_rw" && (v("wal.recovery_s") <= 0 || v("wal.syncs_per_insert") <= 0 || v("server.insert_p50_ms") <= 0) {
			t.Errorf("dynamic_rw: write-path metrics missing: %+v", res.Metrics)
		}
	}
}

// One wrong oracle entry must show up as failed operations and a run that is
// not correct.
func TestWrongOracleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs xseqd")
	}
	results, ok := runSmoke(t, []string{"mono_twig"}, options{seed: 42, wrongOracle: true})
	res := results["mono_twig"]
	if ok || res.Correct || res.Failed == 0 {
		t.Errorf("wrong oracle went unnoticed: ok %v correct %v failed %d", ok, res.Correct, res.Failed)
	}
}

func writeRecords(t *testing.T, path string, recs []record) {
	t.Helper()
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

// synthetic builds n runs of one workload whose metrics are base scaled by
// factor, alternating +-jitter.
func synthetic(workload string, n int, factor map[string]float64, jitter float64, failed int) []record {
	base := map[string]float64{"setup_s": 1, "build_docs_per_s": 10000, "ready_s": 0.05, "ops_per_s": 1000,
		"p50_ms": 0.5, "p99_ms": 5, "rss_mb": 20, "bytes_per_doc_byte": 0.3}
	var out []record
	for i := 0; i < n; i++ {
		r := record{Workload: workload, result: result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}}}
		for _, m := range endToEnd {
			f := 1.0
			if v, ok := factor[m.Name]; ok {
				f = v
			}
			j := 1 + jitter*float64(i%3-1)
			r.Metrics[m.Name] = metricValue{Value: base[m.Name] * f * j, Unit: m.Unit}
		}
		out = append(out, r)
	}
	return out
}

func TestCompare(t *testing.T) {
	for _, m := range endToEnd {
		if _, ok := synthetic("mono_twig", 1, nil, 0, 0)[0].Metrics[m.Name]; !ok {
			t.Fatalf("synthetic records lack %s", m.Name)
		}
	}
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		p := filepath.Join(dir, name)
		writeRecords(t, p, recs)
		return p
	}
	// beyond is a change 5 points past the metric's bound.
	beyond := func(metric string) float64 {
		for _, m := range endToEnd {
			if m.Name == metric {
				return m.Bound + 0.05
			}
		}
		t.Fatalf("no end-to-end metric %s", metric)
		return 0
	}
	a := write("a.jsonl", synthetic("mono_twig", 5, nil, 0.01, 0))
	for _, tc := range []struct {
		name    string
		b       []record
		worse   bool
		row     string // metric whose row must carry...
		verdict string // ...this verdict
	}{
		{"same", synthetic("mono_twig", 5, nil, 0.01, 0), false, "ops_per_s", "same"},
		{"slower than the bound", synthetic("mono_twig", 5, map[string]float64{"ops_per_s": 1 - beyond("ops_per_s")}, 0.01, 0), true, "ops_per_s", "worse"},
		{"higher p50 than the bound", synthetic("mono_twig", 5, map[string]float64{"p50_ms": 1 + beyond("p50_ms")}, 0.01, 0), true, "p50_ms", "worse"},
		{"20% more memory", synthetic("mono_twig", 5, map[string]float64{"rss_mb": 1.2}, 0.01, 0), true, "rss_mb", "worse"},
		{"faster than the bound", synthetic("mono_twig", 5, map[string]float64{"ops_per_s": 1 + beyond("ops_per_s")}, 0.01, 0), false, "ops_per_s", "better"},
		{"noisy", synthetic("mono_twig", 6, nil, 0.4, 0), false, "ops_per_s", "unresolved"},
		{"failures", synthetic("mono_twig", 5, nil, 0.01, 3), true, "fail_ratio", "worse"},
	} {
		b := write(tc.name+".jsonl", tc.b)
		var out bytes.Buffer
		worse, err := compareFiles(&out, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, worse, tc.worse, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "mono_twig" && f[1] == tc.row && strings.Contains(line, " "+tc.verdict+" ") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s row with verdict %q\n%s", tc.name, tc.row, tc.verdict, out.String())
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
