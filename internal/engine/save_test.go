package engine_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/faultio"
)

// TestSaveFileFailureKeepsPreviousFile: a save that dies mid-stream (the
// disk fills after 5 bytes) leaves the previous file at the path
// byte-identical and no temporary sibling behind; a save that succeeds
// replaces it whole.
func TestSaveFileFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.bin")
	write := func(payload string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, payload)
			return err
		}
	}
	if err := engine.SaveFile(path, write("generation-1")); err != nil {
		t.Fatal(err)
	}

	err := engine.SaveFile(path, func(w io.Writer) error {
		return write("generation-2")(&faultio.FailingWriter{W: w, Limit: 5})
	})
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("SaveFile = %v, want the injected write error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("generation-1")) {
		t.Fatalf("failed save changed the file at path: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "idx.bin" {
		t.Fatalf("failed save left siblings behind: %v", entries)
	}

	if err := engine.SaveFile(path, write("generation-3")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "generation-3" {
		t.Fatalf("successful save wrote %q", got)
	}
	if err := engine.SaveFile(filepath.Join(dir, "missing", "idx.bin"), write("x")); err == nil {
		t.Fatal("save into a nonexistent directory succeeded")
	}
}
