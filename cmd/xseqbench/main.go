// Command xseqbench regenerates the paper's evaluation tables and figures
// (Section 6). Every experiment prints a paper-style table; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for recorded runs.
//
// Usage:
//
//	xseqbench [-exp all|fig14a,table7,...] [-scale 0.02] [-seed 42]
//	          [-queries 50] [-pool 256] [-list]
//	xseqbench -replay query.log -url http://127.0.0.1:8080 [-rate 200] [-json -]
//	xseqbench -genlog query.log [-genlog-queries 500] [-skew 1.2]
//
// Scale 1.0 reproduces paper-sized datasets (millions of records; takes a
// long time and a lot of memory); the default keeps each experiment in
// seconds while preserving the reported shapes.
//
// -replay drives a recorded query log (plain pattern lines or xseqd
// -trace-log JSON lines) against a live xseqd at -rate queries/sec
// (0 = unpaced) on -replay-concurrency workers, looping the log -loops
// times, and writes a JSON summary — achieved throughput, latency
// percentiles, succeeded/failed/shed counts — to -json ("-" or empty =
// stdout). -genlog writes a synthetic query log instead: patterns
// extracted from a -dataset/-records corpus, sampled with Zipf skew
// -skew (hot queries repeat, like production traffic). The regression-gated
// benchmark of the served system is benchmark/ (sh benchmark/run.sh).
//
// Exit codes: 0 success, 1 data/experiment error or unreachable replay
// server, 2 usage (including an unreadable or malformed -replay log, and
// -json without -replay), 3 timeout (-timeout elapsed before the run
// finished), 4 corrupt index snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xseq"
	"xseq/internal/bench"
)

// Exit codes; see the command doc.
const (
	exitOK      = 0
	exitData    = 1
	exitUsage   = 2
	exitTimeout = 3
	exitCorrupt = 4
)

// exitCode classifies err the same way cmd/xseqquery does: retryable
// timeouts and permanent snapshot corruption get codes of their own.
func exitCode(err error) int {
	var corrupt *xseq.CorruptError
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitTimeout
	case errors.Is(err, bench.ErrBadLog):
		return exitUsage
	case errors.As(err, &corrupt):
		return exitCorrupt
	default:
		return exitData
	}
}

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.Float64("scale", 0.02, "dataset scale relative to the paper (1.0 = paper size)")
		seed    = flag.Int64("seed", 42, "random seed for data generation")
		queries = flag.Int("queries", 50, "random queries per measurement point")
		pool    = flag.Int("pool", 0, "buffer pool pages for I/O experiments (0 = default 256)")
		list    = flag.Bool("list", false, "list experiments and exit")
		chart   = flag.Bool("chart", false, "render figure experiments as ASCII charts too")
		out     = flag.String("out", "", "also write the output to this file")
		timeout = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")

		replay     = flag.String("replay", "", "replay this query log against a live xseqd (see -url, -rate, -loops)")
		replayURL  = flag.String("url", "http://127.0.0.1:8080", "base URL of the xseqd to replay against")
		rate       = flag.Float64("rate", 0, "target replay rate in queries/sec (0 = unpaced)")
		replayConc = flag.Int("replay-concurrency", 8, "concurrent replay workers")
		loops      = flag.Int("loops", 1, "times to replay the whole log")
		jsonOut    = flag.String("json", "", "write the -replay summary to this file ('-' or empty = stdout)")
		genlog     = flag.String("genlog", "", "write a synthetic query log to this file ('-' = stdout) and exit")
		genQueries = flag.Int("genlog-queries", 100, "query lines to write with -genlog")
		dataset    = flag.String("dataset", "xmark", "corpus for -genlog: xmark, dblp, or a synth name like L3F5A25I0P40")
		records    = flag.Int("records", 1000, "corpus size for -genlog")
		skew       = flag.Float64("skew", 1.2, "zipf exponent for -genlog pattern sampling (<= 1 = uniform)")
	)
	flag.Parse()

	if *jsonOut != "" && *replay == "" {
		fmt.Fprintln(os.Stderr, "xseqbench: -json is the -replay summary sink; it needs -replay")
		os.Exit(exitUsage)
	}
	if *rate < 0 || *replayConc < 0 || *loops < 0 || *genQueries < 0 {
		fmt.Fprintln(os.Stderr, "xseqbench: -rate, -replay-concurrency, -loops, and -genlog-queries must be >= 0")
		os.Exit(exitUsage)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Short)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *genlog != "" {
		var sink io.Writer = os.Stdout
		if *genlog != "-" {
			f, err := os.Create(*genlog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
				os.Exit(exitData)
			}
			defer f.Close()
			sink = f
		}
		n, err := bench.GenerateQueryLog(sink, bench.LogGenConfig{
			Dataset: *dataset,
			Records: *records,
			Queries: *genQueries,
			Skew:    *skew,
			Seed:    *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitCode(err))
		}
		fmt.Fprintf(os.Stderr, "xseqbench: wrote %d queries to %s\n", n, *genlog)
		return
	}

	if *replay != "" {
		res, err := bench.Replay(bench.ReplayConfig{
			URL:         *replayURL,
			LogPath:     *replay,
			Rate:        *rate,
			Concurrency: *replayConc,
			Loops:       *loops,
			Context:     ctx,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitCode(err))
		}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitData)
		}
		blob = append(blob, '\n')
		if *jsonOut == "" || *jsonOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitData)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed, Queries: *queries, PoolPages: *pool, Context: ctx}
	var selected []bench.Experiment
	if *exps == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "xseqbench: unknown experiment %q (use -list)\n", id)
				os.Exit(exitUsage)
			}
			selected = append(selected, e)
		}
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitData)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "xseqbench: close: %v\n", err)
			}
		}()
		sink = io.MultiWriter(os.Stdout, f)
	}

	for _, e := range selected {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %v\n", err)
			os.Exit(exitCode(err))
		}
		start := time.Now()
		tabs, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xseqbench: %s: %v\n", e.ID, err)
			os.Exit(exitCode(err))
		}
		for _, t := range tabs {
			fmt.Fprintln(sink, t.Format())
			if *chart && strings.HasPrefix(e.ID, "fig") {
				if c := t.Chart(nil); c != "" {
					fmt.Fprintln(sink, c)
				}
			}
		}
		fmt.Fprintf(sink, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
