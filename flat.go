package xseq

import (
	"context"
	"fmt"
	"io"

	"xseq/internal/flat"
	"xseq/internal/shard"
)

// LayoutFlat is the Config.Layout value for the flat layout. Every
// single-partition index is an XSEQFLAT image; the layout names how one is
// held. "monolithic" (Config.Layout "", Load) keeps the image on the Go
// heap, verified in full when loaded; "flat" (LayoutFlat, LoadFile) serves
// it in place — memory-mapped when loaded from a file — and reports its
// storage figures in Stats.Flat.
const LayoutFlat = "flat"

// Layout names the index's storage organization: "monolithic", "sharded",
// or "flat".
func (ix *Index) Layout() string {
	if ix.flat {
		return LayoutFlat
	}
	if _, ok := ix.base.(*shard.Index); ok {
		return "sharded"
	}
	return "monolithic"
}

// flatEngine returns the underlying engine of the flat layout, nil for
// other layouts.
func (ix *Index) flatEngine() *flat.Index {
	if !ix.flat {
		return nil
	}
	f, _ := ix.base.(*flat.Index)
	return f
}

// SaveFlat writes the index as a single-partition snapshot. A
// single-partition index writes exactly what Save writes; a sharded index
// rebuilds one partition from its retained corpus first (requires
// Config.KeepDocuments — without the documents there is nothing to rebuild
// from, and the error wraps ErrUnsupported). For a DynamicIndex, checkpoint
// it instead.
func (ix *Index) SaveFlat(w io.Writer) (err error) {
	defer guard(&err)
	f, err := ix.singlePartition()
	if err != nil {
		return err
	}
	return f.Save(w)
}

// SaveFlatFile is SaveFlat to a file, crash-safely (temp + fsync + atomic
// rename; a previous file at path survives a failure intact).
func (ix *Index) SaveFlatFile(path string) (err error) {
	defer guard(&err)
	f, err := ix.singlePartition()
	if err != nil {
		return err
	}
	return f.SaveFile(path)
}

// singlePartition returns the index's one XSEQFLAT image, rebuilding a
// sharded index's retained corpus as one partition.
func (ix *Index) singlePartition() (*flat.Index, error) {
	switch eng := ix.base.(type) {
	case *flat.Index:
		return eng, nil
	case *shard.Index:
		docs := eng.Documents()
		if docs == nil {
			return nil, fmt.Errorf("xseq: single-partition save of a sharded index requires Config.KeepDocuments (rebuilds one partition from the corpus): %w", ErrUnsupported)
		}
		enc := partitions(eng)[0].Encoder()
		rebuilt, _, err := buildPartition(context.Background(), docs, Config{
			ValueSpace:    enc.ValueSpace(),
			TextValues:    enc.TextValues(),
			KeepDocuments: true,
		}, false)
		if err != nil {
			return nil, fmt.Errorf("xseq: single-partition rebuild: %w", err)
		}
		return rebuilt, nil
	default:
		return nil, fmt.Errorf("xseq: single-partition save of layout %q: %w", ix.Layout(), ErrUnsupported)
	}
}

// VerifyIntegrity runs the deepest integrity pass the layout needs. For
// the flat layout that is the full checksum sweep over every section,
// which a mapped open skips, so this is what a serving layer calls before
// publishing a reloaded snapshot (corruption then keeps the old snapshot
// serving instead of surfacing mid-query). The monolithic and sharded
// layouts verified checksums and structure at load time already; for them
// this is a no-op. Damage is reported as a *CorruptError.
func (ix *Index) VerifyIntegrity() (err error) {
	defer guard(&err)
	if f := ix.flatEngine(); f != nil {
		return f.VerifyChecksums()
	}
	return nil
}

// Close releases resources the layout holds outside the Go heap — the mmap
// of a snapshot opened by LoadFile. Other indexes close as a no-op.
// Idempotent; no queries may be in flight or issued afterwards. An unclosed
// mapped index is unmapped by a finalizer when it becomes unreachable, so a
// Swapper dropping old snapshots without closing them does not leak
// mappings.
func (ix *Index) Close() error {
	if f, ok := ix.base.(*flat.Index); ok {
		return f.Close()
	}
	return nil
}

// FlatStats reports the flat layout's real storage figures — the
// resident-vs-mapped pair the paper's page-oriented cost model is about.
type FlatStats struct {
	// MappedBytes is the image size (the whole mapped file).
	MappedBytes int64 `json:"mapped_bytes"`
	// Pages is MappedBytes in 4 KiB pages.
	Pages int64 `json:"pages"`
	// Mmapped reports whether the snapshot is memory-mapped (false: held on
	// the Go heap — built in memory, or the ReadAt fallback).
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

// Stats returns index statistics; Stats.Flat is set for the flat layout.
func (ix *Index) Stats() Stats {
	st := shapeStats(ix.base)
	st.QueryCache = cacheStats(ix.eng)
	f := ix.flatEngine()
	if f == nil {
		return st
	}
	st.Flat = &FlatStats{
		MappedBytes: f.MappedBytes(),
		Pages:       f.TotalPages(),
		Mmapped:     f.Mmapped(),
	}
	if f.PagerAttached() {
		ps := f.PagerStats()
		st.Flat.PagerAttached = true
		st.Flat.ResidentPages = f.ResidentPages()
		st.Flat.ResidentBytes = st.Flat.ResidentPages * 4096
		st.Flat.Reads, st.Flat.Hits, st.Flat.DiskAccesses = ps.Reads, ps.Hits, ps.Misses
	}
	return st
}
