// Command xseqquery builds a constraint-sequence index over a corpus file
// (the <corpus>-wrapped record format cmd/xseqgen emits, where each child
// of the root is one record) and answers XPath-subset queries against it.
//
// Usage:
//
//	xseqquery -data corpus.xml "/site//person/*/age[text='32']" ...
//	xseqquery -data corpus.xml -stats            # index statistics only
//	xseqquery -data corpus.xml -io "/a/b"        # with page-level I/O costs
//	xseqquery -data corpus.xml -verify "/a[b='x']"
//	xseqquery -data corpus.xml -shards 8 "/a/b"  # partitioned parallel build + fan-out query
//
// Every index is sequenced by g_best over the corpus's inferred schema.
//
// Exit codes distinguish failure classes so scripts can react: 0 success,
// 1 data error (parse, limit, I/O, bad query), 2 usage, 3 timeout
// (-timeout elapsed — retryable with a larger budget), 4 corrupt index
// snapshot (rebuild or restore, retrying won't help).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"xseq"
)

// Exit codes; see the command doc.
const (
	exitOK      = 0
	exitData    = 1
	exitUsage   = 2
	exitTimeout = 3
	exitCorrupt = 4
)

// exitCode classifies err into the command's exit codes: timeouts
// (retryable) and snapshot corruption (permanent) get distinct codes from
// generic data errors.
func exitCode(err error) int {
	var corrupt *xseq.CorruptError
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitTimeout
	case errors.As(err, &corrupt):
		return exitCorrupt
	default:
		return exitData
	}
}

// fail prints a one-line error and exits with err's class code — no
// partial output follows a parse, limit, corruption, or timeout failure.
func fail(err error, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "xseqquery: "+format+"\n", args...)
	os.Exit(exitCode(err))
}

func main() {
	var (
		data    = flag.String("data", "", "corpus XML file (or use -loadindex)")
		stats   = flag.Bool("stats", false, "print index statistics")
		verify  = flag.Bool("verify", false, "verify candidates against stored documents (exact values)")
		ioSim   = flag.Bool("io", false, "report disk accesses (4 KiB pages of the index image) per query")
		pool    = flag.Int("pool", 0, "buffer pool pages for -io (0 = default 256)")
		maxIDs  = flag.Int("show", 20, "maximum result ids to print per query")
		text    = flag.Bool("text", false, "index values as character sequences (enables [text='p*'] prefix queries)")
		explain = flag.Bool("explain", false, "print the work profile of each query")
		schema  = flag.Bool("schema", false, "print the inferred schema outline")
		saveIdx = flag.String("saveindex", "", "write the built index to this file (crash-safe: temp + fsync + rename)")
		loadIdx = flag.String("loadindex", "", "load a previously saved index instead of building")
		timeout = flag.Duration("timeout", 0, "abort build and each query after this duration (0 = no limit)")
		shards  = flag.Int("shards", 0, "partition the index into this many shards built and queried in parallel (0/1 = monolithic)")
		workers = flag.Int("workers", 0, "concurrent shard builds for -shards (0 = GOMAXPROCS)")
		qcache  = flag.Int("query-cache", 0, "cache up to this many query results keyed by canonical pattern (0 = no cache)")
	)
	flag.Parse()

	if *shards < 0 || *workers < 0 || *qcache < 0 {
		fmt.Fprintln(os.Stderr, "xseqquery: -shards, -workers, and -query-cache must be >= 0")
		os.Exit(exitUsage)
	}
	if *ioSim && *shards > 1 {
		fmt.Fprintln(os.Stderr, "xseqquery: -io needs a single partition (a sharded index has no one page image)")
		os.Exit(exitUsage)
	}
	// withTimeout derives the deadline context each cancellable phase
	// (build, every query) runs under.
	withTimeout := func() (context.Context, context.CancelFunc) {
		if *timeout > 0 {
			return context.WithTimeout(context.Background(), *timeout)
		}
		return context.Background(), func() {}
	}

	var ix *xseq.Index
	buildStart := time.Now()
	switch {
	case *loadIdx != "":
		var err error
		ix, err = xseq.LoadFile(*loadIdx)
		if err == nil {
			// LoadFile maps the snapshot and checks only its head; check
			// the rest before answering from it.
			err = ix.VerifyIntegrity()
		}
		if err != nil {
			fail(err, "%v", err)
		}
		if *qcache > 0 {
			ix.EnableQueryCache(*qcache)
		}
	case *data != "":
		docs, err := xseq.LoadCorpusFile(*data)
		if err != nil {
			fail(err, "%v", err)
		}
		ctx, cancel := withTimeout()
		ix, err = xseq.BuildContext(ctx, docs, xseq.Config{
			KeepDocuments:     *verify || *saveIdx != "",
			TextValues:        *text,
			Shards:            *shards,
			BuildWorkers:      *workers,
			QueryCacheEntries: *qcache,
		})
		cancel()
		if err != nil {
			fail(err, "build: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "xseqquery: one of -data or -loadindex is required")
		os.Exit(exitUsage)
	}
	if *saveIdx != "" {
		if err := ix.SaveFile(*saveIdx); err != nil {
			fail(err, "save: %v", err)
		}
		fmt.Printf("index saved to %s\n", *saveIdx)
	}
	s := ix.Stats()
	fmt.Printf("indexed %d records: %d trie nodes, %d path links, ~%d bytes (ready in %v)\n",
		s.Documents, s.IndexNodes, s.Links, s.EstimatedDiskBytes,
		time.Since(buildStart).Round(time.Millisecond))
	if s.Shards > 0 {
		fmt.Printf("sharded %d ways:", s.Shards)
		for _, ps := range s.PerShard {
			fmt.Printf(" %d", ps.Documents)
		}
		fmt.Println(" docs/shard")
	}
	if *schema {
		if outline, err := ix.SchemaOutline(); err == nil {
			fmt.Print(outline)
		} else {
			fmt.Printf("(no schema outline: %v)\n", err)
		}
	}
	if *stats && flag.NArg() == 0 {
		return
	}
	if *ioSim {
		pages, err := ix.EnablePagedIO(*pool)
		if err != nil {
			fail(err, "%v", err)
		}
		fmt.Printf("index image: %d pages of 4KiB\n", pages)
	}

	for _, q := range flag.Args() {
		if *ioSim {
			ix.DropIOCache()
		}
		start := time.Now()
		var ids []int32
		var ex xseq.Explain
		var err error
		ctx, cancel := withTimeout()
		switch {
		case *verify:
			ids, err = ix.QueryVerifiedContext(ctx, q)
		case *explain:
			ids, ex, err = ix.QueryExplainContext(ctx, q)
		default:
			ids, err = ix.QueryContext(ctx, q)
		}
		cancel()
		elapsed := time.Since(start)
		if err != nil {
			fail(err, "%q: %v", q, err)
		}
		fmt.Printf("\nquery  %s\n", q)
		fmt.Printf("hits   %d in %v\n", len(ids), elapsed.Round(time.Microsecond))
		if *ioSim {
			fmt.Printf("io     %d disk accesses (%d reads)\n", ix.IO().DiskAccesses, ix.IO().Reads)
		}
		if *explain {
			fmt.Printf("work   %d instances, %d orders, %d probes, %d scanned, %d cover checks (%d rejections)\n",
				ex.Instances, ex.Orders, ex.LinkProbes, ex.EntriesScanned, ex.CoverChecks, ex.CoverRejections)
		}
		shown := ids
		if len(shown) > *maxIDs {
			shown = shown[:*maxIDs]
		}
		fmt.Printf("ids    %v", shown)
		if len(ids) > len(shown) {
			fmt.Printf(" ... (%d more)", len(ids)-len(shown))
		}
		fmt.Println()
	}
	if qc := ix.Stats().QueryCache; qc != nil && flag.NArg() > 0 {
		fmt.Printf("\ncache  %d/%d entries, %d hits, %d misses, %d evictions\n",
			qc.Entries, qc.Capacity, qc.Hits, qc.Misses, qc.Evictions)
	}
}
