package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"xseq"
	"xseq/internal/server"
)

func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, exitOK},
		{"generic", errors.New("bind: address already in use"), exitFailure},
		{"config", fmt.Errorf("startup: %w", server.ErrConfig), exitUsage},
		{"deadline", context.DeadlineExceeded, exitTimeout},
		{"wrapped cancel", fmt.Errorf("startup: %w", context.Canceled), exitTimeout},
		{"snapshot corrupt", fmt.Errorf("server: initial snapshot: %w",
			&xseq.CorruptError{Reason: "checksum mismatch"}), exitCorrupt},
		{"wal corrupt", fmt.Errorf("server: open wal: %w",
			&xseq.WALCorruptError{Path: "ingest.wal", Offset: 20, Reason: "torn entry"}), exitCorrupt},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestExitCodesDistinct pins the contract supervisors rely on: a corrupt
// log under -wal-strict must be distinguishable from a transient failure,
// or a restart loop would grind on a file that needs operator attention.
func TestExitCodesDistinct(t *testing.T) {
	codes := map[int]string{exitOK: "ok", exitFailure: "failure", exitUsage: "usage", exitTimeout: "timeout", exitCorrupt: "corrupt"}
	if len(codes) != 5 {
		t.Fatalf("exit codes collide: %v", codes)
	}
}

func TestParseCheckpointEvery(t *testing.T) {
	cases := []struct {
		in          string
		wantEntries int
		wantBytes   int64
		ok          bool
	}{
		{"", 0, 0, true},
		{"10000", 10000, 0, true},
		{"1", 1, 0, true},
		{"64MB", 0, 64 << 20, true},
		{"64mb", 0, 64 << 20, true},
		{" 2 GB ", 0, 2 << 30, true},
		{"512KB", 0, 512 << 10, true},
		{"128B", 0, 128, true},
		{"0", 0, 0, false},
		{"-5", 0, 0, false},
		{"0MB", 0, 0, false},
		{"MB", 0, 0, false},
		{"ten", 0, 0, false},
		{"10XB", 0, 0, false},
		{"9999999999GB", 0, 0, false}, // overflows int64 bytes
	}
	for _, c := range cases {
		entries, bytes, err := parseCheckpointEvery(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseCheckpointEvery(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if entries != c.wantEntries || bytes != c.wantBytes {
			t.Errorf("parseCheckpointEvery(%q) = (%d, %d), want (%d, %d)",
				c.in, entries, bytes, c.wantEntries, c.wantBytes)
		}
	}
}
