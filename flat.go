package xseq

import (
	"context"
	"fmt"
	"io"

	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/index"
	"xseq/internal/shard"
)

// LayoutFlat is the Config.Layout value selecting the flat single-file
// layout: the built index is immediately converted to the mmap-able flat
// format and queried in place. See SaveFlat for converting an existing
// index.
const LayoutFlat = "flat"

// Layout names the index's storage organization: "monolithic", "sharded",
// or "flat".
func (ix *Index) Layout() string {
	switch ix.baseEngine().(type) {
	case *flat.Index:
		return "flat"
	case *shard.Index:
		return "sharded"
	default:
		return "monolithic"
	}
}

// flatEngine returns the underlying flat engine, nil for other layouts.
func (ix *Index) flatEngine() *flat.Index {
	f, _ := ix.baseEngine().(*flat.Index)
	return f
}

// SaveFlat converts the index to the flat single-file format and writes it
// to w. A monolithic index converts directly; a flat index copies its
// bytes; a sharded index rebuilds one monolithic image from its retained
// corpus first (requires Config.KeepDocuments — without the documents
// there is nothing to rebuild from, and the error wraps ErrUnsupported).
// For a DynamicIndex, checkpoint it and convert the snapshot.
//
// The written snapshot is opened with Load/LoadFile like any other; opening
// it costs O(dictionary) regardless of corpus size, and on platforms with
// mmap the file is queried in place without being read up front.
func (ix *Index) SaveFlat(w io.Writer) (err error) {
	defer guard(&err)
	if f := ix.flatEngine(); f != nil {
		return f.Save(w)
	}
	ex, err := ix.flatExport()
	if err != nil {
		return err
	}
	return flat.Write(w, ex)
}

// SaveFlatFile is SaveFlat to a file, crash-safely (temp + fsync + atomic
// rename; a previous file at path survives a failure intact).
func (ix *Index) SaveFlatFile(path string) (err error) {
	defer guard(&err)
	if f := ix.flatEngine(); f != nil {
		return f.SaveFile(path)
	}
	ex, err := ix.flatExport()
	if err != nil {
		return err
	}
	return flat.WriteFile(path, ex)
}

// flatExport produces the flat-format source material for any heap engine.
func (ix *Index) flatExport() (*index.Export, error) {
	switch eng := ix.baseEngine().(type) {
	case *index.Index:
		return eng.Export()
	case *shard.Index:
		docs := eng.Documents()
		if docs == nil {
			return nil, fmt.Errorf("xseq: flat conversion of a sharded index requires Config.KeepDocuments (rebuilds one monolithic image from the corpus): %w", ErrUnsupported)
		}
		enc := eng.Shard(0).Encoder()
		rebuilt, _, err := buildPartition(context.Background(), docs, Config{
			ValueSpace:    enc.ValueSpace(),
			TextValues:    enc.TextValues(),
			KeepDocuments: true,
			BulkLoad:      true,
		}, false)
		if err != nil {
			return nil, fmt.Errorf("xseq: flat conversion rebuild: %w", err)
		}
		return rebuilt.Export()
	default:
		return nil, fmt.Errorf("xseq: flat conversion of layout %q: %w", ix.Layout(), ErrUnsupported)
	}
}

// VerifyIntegrity runs the deepest integrity pass the layout supports. For
// a flat snapshot that is the full checksum sweep over every section —
// opening only verifies the dictionary head, so this is what a serving
// layer calls before publishing a reloaded snapshot (corruption then keeps
// the old snapshot serving instead of surfacing mid-query). Heap layouts
// verified everything at load time already; for them this is a no-op.
// Damage is reported as a *CorruptError.
func (ix *Index) VerifyIntegrity() (err error) {
	defer guard(&err)
	if f := ix.flatEngine(); f != nil {
		return f.VerifyChecksums()
	}
	return nil
}

// Close releases resources the layout holds outside the Go heap — the mmap
// of a flat snapshot. Heap layouts close as a no-op. Idempotent; no
// queries may be in flight or issued afterwards. An unclosed flat index is
// unmapped by a finalizer when it becomes unreachable, so a Swapper
// dropping old snapshots without closing them does not leak mappings.
func (ix *Index) Close() error {
	if f := ix.flatEngine(); f != nil {
		return f.Close()
	}
	return nil
}

// FlatStats reports the flat layout's real storage figures — the
// resident-vs-mapped pair the paper's page-oriented cost model is about.
type FlatStats struct {
	// MappedBytes is the snapshot file size (the whole mapped image).
	MappedBytes int64 `json:"mapped_bytes"`
	// Pages is MappedBytes in 4 KiB pages.
	Pages int64 `json:"pages"`
	// Mmapped reports whether the snapshot is memory-mapped (false: read
	// into the heap, the ReadAt fallback).
	Mmapped bool `json:"mmapped"`
	// PagerAttached reports whether page-level accounting is running
	// (EnablePagedIO). The fields below are zero without it. xseqd always
	// attaches the pager, so /stats does not carry it.
	PagerAttached bool `json:"-"`
	// ResidentPages and ResidentBytes count the distinct pages queries
	// have touched since the pager attached. With a pool that covers the
	// file (xseqd's) that is exact and at most Pages; a smaller pool caps
	// it at its own size.
	ResidentPages int64 `json:"resident_pages"`
	ResidentBytes int64 `json:"resident_bytes"`
	// Reads, Hits, and DiskAccesses are the buffer-pool counters;
	// DiskAccesses (misses) is the paper's metric.
	Reads        int64 `json:"reads"`
	Hits         int64 `json:"hits"`
	DiskAccesses int64 `json:"disk_accesses"`
}

// flatStats assembles FlatStats for a flat engine, nil otherwise.
func flatStats(eng engine.Engine) *FlatStats {
	f, ok := eng.(*flat.Index)
	if !ok {
		return nil
	}
	st := &FlatStats{
		MappedBytes: f.MappedBytes(),
		Pages:       f.TotalPages(),
		Mmapped:     f.Mmapped(),
	}
	if f.PagerAttached() {
		ps := f.PagerStats()
		st.PagerAttached = true
		st.ResidentPages = f.ResidentPages()
		st.ResidentBytes = st.ResidentPages * 4096
		st.Reads, st.Hits, st.DiskAccesses = ps.Reads, ps.Hits, ps.Misses
	}
	return st
}
