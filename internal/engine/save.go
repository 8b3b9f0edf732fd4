package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SaveFile writes a snapshot to path crash-safely: save streams it to a
// temporary file in the same directory, which is fsynced and atomically
// renamed over path, so a crash or failure mid-save can never leave a torn
// or half-written snapshot at path (any previous file there survives
// intact) and no temporary file is left behind. Every layout's SaveFile is
// this function applied to its Save.
func SaveFile(path string, save func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("save %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = save(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("save %s: sync: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("save %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("save %s: rename: %w", path, err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
