package xseq

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/flat"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/telemetry"
)

// Completeness of the identical-sibling remedy (§3, Fig 5): a query must try
// every order of every identical-sibling group, or it dismisses documents
// whose siblings come in an order it did not try. Thm 2 then makes the
// constraint match equal to the tree-pattern match, which query.Eval
// computes without sequencing anything.

// probeQuery matches every probeDocs document, in whatever order its five
// a children come: one group of five distinct members, 5! orders.
const probeQuery = "/r[a/x][a/y][a/z][a/u][a/v]"

func probeDocs(t *testing.T) []*Document {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	docs := make([]*Document, 200)
	for i := range docs {
		names := []string{"x", "y", "z", "u", "v"}
		rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		src := "<r>"
		for _, n := range names {
			src += "<a><" + n + "/></a>"
		}
		d, err := ParseDocumentString(int32(i), src+"</r>")
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	return docs
}

func TestProbeCompleteOnEveryConstructor(t *testing.T) {
	docs := probeDocs(t)
	for _, c := range everyConstructor(t, docs, Config{}, defaultSchedule(len(docs)), 0) {
		ids, err := c.q.Query(probeQuery)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(ids) != len(docs) {
			t.Errorf("%s: %d of %d documents; orders were dismissed", c.name, len(ids), len(docs))
		}
	}
	ix, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ex, err := ix.QueryExplain(probeQuery); err != nil || ex.Orders != 120 || ex.Results != len(docs) {
		t.Fatalf("explain = %+v, %v; want all 5! orders and every document", ex, err)
	}
}

// TestProbeExplainPins pins the work the probe costs, counter by counter:
// every single-partition constructor reports the same Explain, two shards
// report the sums of their kernels' counts, and a naive traced query skips
// every cover check and pays for it in probes and entries. Link probes
// depend on the trie's sibling order, ascending by path id.
func TestProbeExplainPins(t *testing.T) {
	docs := probeDocs(t)
	built, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.idx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	sharded, err := Build(docs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	one := Explain{Instances: 1, Orders: 120, LinkProbes: 96205, EntriesScanned: 7150, CoverChecks: 4919, CoverRejections: 2369, Results: 200}
	two := Explain{Instances: 2, Orders: 240, LinkProbes: 137124, EntriesScanned: 10601, CoverChecks: 7196, CoverRejections: 3451, Results: 200}
	for _, c := range []struct {
		name string
		ix   *Index
		want Explain
	}{{"Build", built, one}, {"Save-Load", loaded, one}, {"SaveFile-LoadFile", mapped, one}, {"Shards 2", sharded, two}} {
		ids, ex, err := c.ix.QueryExplain(probeQuery)
		if err != nil || len(ids) != len(docs) || ex != c.want {
			t.Errorf("%s: explain %+v (%d ids, %v), want %+v", c.name, ex, len(ids), err, c.want)
		}
	}
	tr := telemetry.GetTrace()
	defer telemetry.PutTrace(tr)
	if _, err := built.eng.QueryWithContext(telemetry.WithTrace(context.Background(), tr), query.MustParse(probeQuery), engine.QueryOptions{Naive: true}); err != nil {
		t.Fatal(err)
	}
	if tr.LinkProbes() != 139514 || tr.EntriesScanned() != 12264 || tr.CoverChecks() != 0 {
		t.Errorf("naive: probes %d, entries %d, cover checks %d; want 139514, 12264, 0", tr.LinkProbes(), tr.EntriesScanned(), tr.CoverChecks())
	}
}

// TestQueryTooBroadEveryConstructor: a pattern whose wildcards instantiate
// past Config.InstantiationLimit fails with ErrQueryTooBroad, naming the
// limit, on every constructor — never a partial answer — while a pattern
// within the limit still answers.
func TestQueryTooBroadEveryConstructor(t *testing.T) {
	docs := decodeCase(equivalenceSeeds()[8]).docs
	for _, c := range everyConstructor(t, docs, Config{InstantiationLimit: 8}, defaultSchedule(len(docs)), 0) {
		ids, err := c.q.Query("//*//*")
		var tb *query.TooBroadError
		if !errors.Is(err, ErrQueryTooBroad) || !errors.As(err, &tb) || tb.Limit != 8 || tb.Reached != 9 || ids != nil {
			t.Fatalf("%s: //*//* = %d ids, %v; want ErrQueryTooBroad at limit 8", c.name, len(ids), err)
		}
		if !strings.Contains(err.Error(), "limit of 8") {
			t.Fatalf("%s: error %q does not name the limit", c.name, err)
		}
		if ids, err := c.q.Query("/r/*"); err != nil || len(ids) == 0 {
			t.Fatalf("%s: /r/* = %v, %v", c.name, ids, err)
		}
	}
}

// TestQueryTooBroadNotPartial: /r[//e][//e][//e] spells out three implied
// a levels, which r's a children may read in five ways, two of them
// alike. Past a limit of 3 the query fails; it does not answer from the
// first readings, which lack a(e,e,e) and dismiss document 0.
func TestQueryTooBroadNotPartial(t *testing.T) {
	const q = "/r[//e][//e][//e]"
	var docs []*Document
	for i, src := range []string{"<r><a><e/><e/><e/></a></r>", "<r><a><e/><e/></a><a><e/></a></r>"} {
		d, err := ParseDocumentString(int32(i), src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	for _, c := range everyConstructor(t, docs, Config{InstantiationLimit: 3}, defaultSchedule(len(docs)), 0) {
		if ids, err := c.q.Query(q); !errors.Is(err, ErrQueryTooBroad) || ids != nil {
			t.Fatalf("%s: %s at limit 3 = %v, %v; want ErrQueryTooBroad", c.name, q, ids, err)
		}
	}
	for _, c := range everyConstructor(t, docs, Config{}, defaultSchedule(len(docs)), 0) {
		if ids, err := c.q.Query(q); err != nil || !slices.Equal(ids, []int32{0, 1}) {
			t.Fatalf("%s: %s = %v, %v; want [0 1]", c.name, q, ids, err)
		}
	}
}

// oldFlatMeta is the META section as snapshots wrote it while queries
// capped identical-sibling orders: with an OrderEnumerationLimit field.
type oldFlatMeta struct {
	Schema                *schema.Node
	Repeat                []pathenc.PathID
	NumDocs               int
	MaxDocID              int32
	MaxSerial             int32
	InstantiationLimit    int
	OrderEnumerationLimit int
	KeptDocs              bool
}

// withOldMeta rewrites a flat snapshot so that its META carries the retired
// OrderEnumerationLimit, re-laying the sections as the format prescribes
// (header, section table, header CRC, 8-aligned payloads).
func withOldMeta(t *testing.T, snap []byte, limit int) []byte {
	t.Helper()
	const bulkBase, tableOff, rowLen, sections, metaID = 176, 24, 24, 6, 4
	le := binary.LittleEndian
	payloads := make([][]byte, sections+1)
	for id := 1; id <= sections; id++ {
		row := snap[tableOff+(id-1)*rowLen:]
		off, n := le.Uint64(row[8:]), le.Uint64(row[16:])
		payloads[id] = snap[off : off+n]
	}
	var meta oldFlatMeta
	if err := gob.NewDecoder(bytes.NewReader(payloads[metaID])).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	meta.OrderEnumerationLimit = limit
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&meta); err != nil {
		t.Fatal(err)
	}
	payloads[metaID] = buf.Bytes()
	out := slices.Clone(snap[:bulkBase])
	off := uint64(bulkBase)
	for id := 1; id <= sections; id++ {
		row := out[tableOff+(id-1)*rowLen:]
		le.PutUint32(row[4:], crc32.ChecksumIEEE(payloads[id]))
		le.PutUint64(row[8:], off)
		le.PutUint64(row[16:], uint64(len(payloads[id])))
		off += uint64(len(payloads[id])+7) &^ 7
	}
	le.PutUint64(out[16:], off)
	le.PutUint32(out[bulkBase-8:], crc32.ChecksumIEEE(out[:bulkBase-8]))
	for id := 1; id <= sections; id++ {
		out = append(out, payloads[id]...)
		out = append(out, make([]byte, (8-len(payloads[id])%8)%8)...)
	}
	return out
}

// TestOldMetaSnapshotOpens: a snapshot written with the retired
// OrderEnumerationLimit in its META opens through flat.OpenFile, Load and
// LoadFile, and answers as the index it was saved from — all 200 probe
// documents, though the old field says 64 orders.
func TestOldMetaSnapshotOpens(t *testing.T) {
	docs := probeDocs(t)
	ix, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	old := withOldMeta(t, buf.Bytes(), 64)
	path := filepath.Join(t.TempDir(), "old.idx")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	fl, err := flat.OpenFile(path, flat.Options{Verify: true})
	if err != nil {
		t.Fatalf("flat.OpenFile: %v", err)
	}
	defer fl.Close()
	loaded, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mapped, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	defer mapped.Close()
	for _, q := range []string{probeQuery, "/r/a/x", "//a[z]", "/r[a/x][a/y]"} {
		want, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if q == probeQuery && len(want) != len(docs) {
			t.Fatalf("built index answers %d of %d", len(want), len(docs))
		}
		got, err := fl.QueryWithContext(context.Background(), query.MustParse(q), engine.QueryOptions{})
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("flat.OpenFile %s = %v, %v; want %v", q, got, err, want)
		}
		for name, x := range map[string]*Index{"Load": loaded, "LoadFile": mapped} {
			if got, err := x.Query(q); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s %s = %v, %v; want %v", name, q, got, err, want)
			}
		}
	}
}
