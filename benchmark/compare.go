package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads an --out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one file's runs of one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int
}

func group(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		if r.Trace {
			continue // per-layer metrics are reported, not gated
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median, quartiles as Python's statistics.quantiles(v, n=4) gives them;
// 0 with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// verdict classifies b against a for one metric. change is how much worse b's
// median is, as a share of a's (negative: better).
func verdict(m metricSpec, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	change = (mb - ma) / ma
	if m.Better == "higher" {
		change = -change
	}
	noise := spread(a)
	if s := spread(b); s > noise {
		noise = s
	}
	switch {
	case change > m.Bound:
		return change, "worse"
	case change < -m.Bound:
		return change, "better"
	case noise > m.Bound:
		// Inside the bound, but the sides' own runs disagree by more than
		// the bound: that is not evidence of "same".
		return change, "unresolved"
	}
	return change, "same"
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, b's ratio to a (a is the base), and a verdict. It reports whether
// anything got worse: a metric beyond its bound, or a higher share of failed
// operations.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ga, gb := group(ra), group(rb)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %10s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		a, b := ga[wl.Name], gb[wl.Name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, v := verdict(m, va, vb)
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %10.4f %7.2f  %s (%s is better, n=%d/%d)\n",
				wl.Name, m.Name, median(va), median(vb), ratio, m.Bound, v, m.Better, len(va), len(vb))
			worse = worse || v == "worse"
		}
		fa, fb := failRatio(a), failRatio(b)
		v := "same"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-20s %14.6f %14.6f %10s %7.2f  %s (failed/attempted)\n", wl.Name, "fail_ratio", fa, fb, "-", 0.0, v)
	}
	return worse, nil
}

func failRatio(s *side) float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}
