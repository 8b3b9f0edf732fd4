// Command benchmark is the one instrument for performance claims about this
// repository. It builds cmd/xseqd, runs it as a child process per workload,
// drives it over loopback, checks every answer against an oracle and prints
// every metric by name with its unit. See README.md.
//
//	sh benchmark/run.sh --workload mono_twig --seed 42 --seconds 20 --trace 0
//	sh benchmark/run.sh --workload all --trace 1 --out run.jsonl
//	sh benchmark/run.sh --smoke
//	sh benchmark/run.sh --compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed    = flag.Int64("seed", 42, "seed of every generated input: corpus, pattern pool, op sequence")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics (adds the paced phase and the in-process traced pass) instead of the end-to-end ones")
		out     = flag.String("out", "", "append each run's record as one JSON line to this file (input of --compare)")
		smoke   = flag.Bool("smoke", false, "tiny corpus and 1 s phases: an end-to-end check of the benchmark itself, not a measurement")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments; exit 1 on any regression")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the program's tables define it, and exit")
	)
	flag.Parse()
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark --compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
		if !flagSet("seconds") {
			*seconds = 1
		}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	ok, err := runAll(os.Stdout, root, todo, options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, sc: sc, out: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// options are the settings of one invocation.
type options struct {
	seed        int64
	seconds     float64
	trace       bool
	smoke       bool
	sc          scale
	out         string
	wrongOracle bool // tests only: corrupt one oracle entry
}

// runAll runs the workloads in turn against the checkout at root, printing
// one result each (the last line of output is the last workload's result).
// It reports whether every answer of every workload was correct.
func runAll(stdout io.Writer, root string, todo []*workload, o options) (bool, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "xseqd")); err != nil {
		return false, fmt.Errorf("run from the repository root (no cmd/xseqd under %s)", root)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return false, err
	}
	bin, err := buildXseqd(root, build)
	if err != nil {
		return false, err
	}
	allCorrect := true
	for _, w := range todo {
		dir, err := os.MkdirTemp(build, "run-"+w.Name+"-")
		if err != nil {
			return false, err
		}
		r := &runner{options: o, w: w, bin: bin, dir: dir, root: root, outDir: filepath.Join(root, "benchmark", "out")}
		res, e, err := r.run()
		_ = os.RemoveAll(dir)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		allCorrect = allCorrect && res.Correct
		if o.out != "" {
			rec := record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke, Env: e, result: res}
			if err := appendRecord(o.out, rec); err != nil {
				return false, err
			}
		}
		printResult(stdout, w.Name, res)
	}
	return allCorrect, nil
}

// printResult lists every metric by name with its unit for a reader, then
// the machine-readable result as the last line.
func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-32s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-14s attempted %d failed %d correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitID names the checkout when it is a git work tree; the driver's
// checkout is not one.
func commitID(root string) string {
	b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := string(b)
	if len(head) > 5 && head[:5] == "ref: " {
		ref := head[5 : len(head)-1]
		if b, err = os.ReadFile(filepath.Join(root, ".git", ref)); err != nil {
			return "unknown"
		}
		head = string(b)
	}
	if len(head) >= 12 {
		return head[:12]
	}
	return "unknown"
}
