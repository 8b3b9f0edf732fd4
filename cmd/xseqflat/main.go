// Command xseqflat writes and verifies single-partition snapshots. Every
// single-partition snapshot is one XSEQFLAT file — xseqquery -saveindex
// writes one too — so xseqflat builds one straight from a corpus, rewrites
// a sharded snapshot as one, and checks one.
//
// Usage:
//
//	xseqflat -data corpus.xml -out corpus.flat   # build corpus → snapshot
//	xseqflat -in sharded.idx -out corpus.flat    # sharded → one partition
//	xseqflat -check corpus.flat                  # full checksum sweep
//	xseqflat -in corpus.idx -out c.flat -verify  # rewrite, reopen, sweep
//
// The file opens in O(dictionary) time regardless of corpus size and is
// queried in place through mmap — serve it with `xseqd -index corpus.flat
// -layout flat`. Rewriting a sharded snapshot requires it to have been
// built with KeepDocuments (the corpus is re-indexed as one partition).
// Every snapshot is sequenced by g_best.
//
// Exit codes: 0 success, 1 data error (unreadable input, unsupported
// conversion, write failure), 2 usage, 4 corrupt snapshot.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"xseq"
)

// Exit codes; see the command doc.
const (
	exitOK      = 0
	exitData    = 1
	exitUsage   = 2
	exitCorrupt = 4
)

// exitCode classifies err: snapshot corruption (permanent — rebuild or
// restore) gets a distinct code from generic data errors.
func exitCode(err error) int {
	var corrupt *xseq.CorruptError
	switch {
	case err == nil:
		return exitOK
	case errors.As(err, &corrupt):
		return exitCorrupt
	default:
		return exitData
	}
}

func main() {
	var (
		in     = flag.String("in", "", "input snapshot (single-partition or sharded)")
		data   = flag.String("data", "", "corpus XML file to index straight into a snapshot (alternative to -in)")
		out    = flag.String("out", "", "output single-partition snapshot path (crash-safe: temp + fsync + rename)")
		check  = flag.String("check", "", "verify this single-partition snapshot's checksums")
		verify = flag.Bool("verify", false, "after writing, reopen -out and run the full checksum sweep")
		quiet  = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	var summary string
	var err error
	switch {
	case *check != "":
		if *in != "" || *out != "" || *data != "" {
			fmt.Fprintln(os.Stderr, "xseqflat: -check stands alone (no -in/-data/-out)")
			os.Exit(exitUsage)
		}
		summary, err = checkFlat(*check)
	case *in != "" && *data != "":
		fmt.Fprintln(os.Stderr, "xseqflat: -in and -data are mutually exclusive")
		os.Exit(exitUsage)
	case *in != "" && *out != "":
		summary, err = convert(*in, *out, *verify)
	case *data != "" && *out != "":
		summary, err = buildFlat(*data, *out, *verify)
	default:
		fmt.Fprintln(os.Stderr, "xseqflat: need -in/-data and -out (rewrite/build) or -check (verify); see -h")
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xseqflat: %v\n", err)
		os.Exit(exitCode(err))
	}
	if !*quiet {
		fmt.Println(summary)
	}
}

// checkFlat maps a single-partition snapshot and runs the full checksum
// sweep.
func checkFlat(path string) (string, error) {
	ix, err := xseq.LoadFile(path)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	defer ix.Close()
	if ix.Layout() != xseq.LayoutFlat {
		return "", fmt.Errorf("%s: layout is %s, not a single-partition snapshot", path, ix.Layout())
	}
	if err := ix.VerifyIntegrity(); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	st := ix.Stats()
	return fmt.Sprintf("%s: ok — %d documents, %d index nodes, %d bytes",
		path, st.Documents, st.IndexNodes, st.Flat.MappedBytes), nil
}

// buildFlat indexes a corpus file directly into a snapshot.
func buildFlat(data, out string, verify bool) (string, error) {
	docs, err := xseq.LoadCorpusFile(data)
	if err != nil {
		return "", err
	}
	ix, err := xseq.Build(docs, xseq.Config{KeepDocuments: true})
	if err != nil {
		return "", fmt.Errorf("build %s: %w", data, err)
	}
	defer ix.Close()
	if err := ix.SaveFlatFile(out); err != nil {
		return "", fmt.Errorf("save %s: %w", out, err)
	}
	flat, err := xseq.LoadFile(out)
	if err != nil {
		return "", fmt.Errorf("reopen %s: %w", out, err)
	}
	defer flat.Close()
	if verify {
		if err := flat.VerifyIntegrity(); err != nil {
			return "", fmt.Errorf("verify %s: %w", out, err)
		}
	}
	st := flat.Stats()
	return fmt.Sprintf("%s → %s: %d documents, %d index nodes, %d bytes",
		data, out, st.Documents, st.IndexNodes, st.Flat.MappedBytes), nil
}

// convert loads any snapshot and writes it out as one partition; with
// verify it reopens the result and runs the full checksum sweep before
// reporting success.
func convert(in, out string, verify bool) (string, error) {
	ix, err := xseq.LoadFile(in)
	if err != nil {
		return "", fmt.Errorf("%s: %w", in, err)
	}
	defer ix.Close()
	if err := ix.SaveFlatFile(out); err != nil {
		return "", fmt.Errorf("convert %s: %w", in, err)
	}
	flat, err := xseq.LoadFile(out)
	if err != nil {
		return "", fmt.Errorf("reopen %s: %w", out, err)
	}
	defer flat.Close()
	if verify {
		if err := flat.VerifyIntegrity(); err != nil {
			return "", fmt.Errorf("verify %s: %w", out, err)
		}
	}
	st := flat.Stats()
	return fmt.Sprintf("%s → %s: %d documents, %d index nodes, %d bytes (%s layout in)",
		in, out, st.Documents, st.IndexNodes, st.Flat.MappedBytes, ix.Layout()), nil
}
