package xseq

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
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
	"xseq/internal/xmltree"
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

// constructed is one way of getting an index over a corpus.
type constructed struct {
	name string
	q    *queryable
}

// everyConstructor indexes docs under cfg every way the library offers: a
// build, a Save→Load round trip, a mapped SaveFile→LoadFile, two shards, an
// updatable index with the last quarter in pending segments, and one
// resumed on a checkpoint of the first three quarters with the rest
// inserted since.
func everyConstructor(t *testing.T, docs []*Document, cfg Config) []constructed {
	t.Helper()
	must := func(ix *Index, err error) *Index {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	built := must(Build(docs, cfg))
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := must(Load(&buf))
	path := filepath.Join(t.TempDir(), "x.idx")
	if err := must(Build(docs, Config{InstantiationLimit: cfg.InstantiationLimit, Layout: LayoutFlat})).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped := must(LoadFile(path))
	t.Cleanup(func() { mapped.Close() })
	sharded := must(Build(docs, Config{InstantiationLimit: cfg.InstantiationLimit, Shards: 2}))

	split := len(docs) * 3 / 4
	dyn, err := BuildDynamic(docs[:split], cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	for _, d := range docs[split:] {
		if err := dyn.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.PendingDocuments() == 0 {
		t.Fatal("inserts were compacted; the dynamic case must keep pending segments")
	}
	keep := cfg
	keep.KeepDocuments = true
	ckpt := filepath.Join(t.TempDir(), "ckpt.idx")
	if err := must(Build(docs[:split], keep)).SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeDynamic(must(LoadFile(ckpt)), keep, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resumed.Close() })
	for _, d := range docs[split:] {
		if err := resumed.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	return []constructed{
		{"Build", &built.queryable},
		{"Save-Load", &loaded.queryable},
		{"SaveFile-LoadFile", &mapped.queryable},
		{"Shards 2", &sharded.queryable},
		{"BuildDynamic", &dyn.queryable},
		{"ResumeDynamic", &resumed.queryable},
	}
}

func TestProbeCompleteOnEveryConstructor(t *testing.T) {
	docs := probeDocs(t)
	for _, c := range everyConstructor(t, docs, Config{}) {
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

// groupedCorpus generates n documents, each an r with a group of 2–6 g
// members whose subtrees differ (each holds its own marker, one of m0..m5),
// some with a nested group of h children and some with further children.
// Every pattern is lifted from a document: the root, a subset of its
// members, and for each member its marker plus a random part of the rest.
func groupedCorpus(rng *rand.Rand, n, patterns int) ([]*Document, []string) {
	leaf := func() *xmltree.Node { return xmltree.NewElem([]string{"x", "y", "z"}[rng.Intn(3)]) }
	docs := make([]*Document, n)
	for i := range docs {
		root := xmltree.NewElem("r")
		for _, m := range rng.Perm(6)[:2+rng.Intn(5)] {
			g := xmltree.NewElem("g", xmltree.NewElem(fmt.Sprintf("m%d", m)))
			for k := rng.Intn(4); k > 0; k-- {
				c := xmltree.NewElem([]string{"h", "k"}[rng.Intn(2)])
				for j := rng.Intn(3); j > 0; j-- {
					c.Children = append(c.Children, leaf())
				}
				g.Children = append(g.Children, c)
			}
			root.Children = append(root.Children, g)
		}
		if rng.Intn(2) == 0 {
			root.Children = append(root.Children, xmltree.NewElem("k", leaf()))
		}
		docs[i] = &Document{id: int32(i), root: root}
	}
	// lift writes n as a pattern step, keeping the children keep picks.
	var lift func(n *xmltree.Node, keep func(int) bool) string
	lift = func(n *xmltree.Node, keep func(int) bool) string {
		s := n.Name
		for i, c := range n.Children {
			if keep(i) {
				s += "[" + lift(c, func(int) bool { return rng.Intn(3) > 0 }) + "]"
			}
		}
		return s
	}
	member := func(g *xmltree.Node) string {
		return lift(g, func(i int) bool { return i == 0 || rng.Intn(3) > 0 })
	}
	pats := make([]string, patterns)
	for i := range pats {
		root := docs[rng.Intn(n)].root
		pats[i] = "/r"
		for k, c := range root.Children {
			switch {
			case c.Name == "g" && (k < 2 || rng.Intn(4) > 0):
				pats[i] += "[" + member(c) + "]"
			case c.Name != "g" && rng.Intn(2) == 0:
				pats[i] += "[" + lift(c, func(int) bool { return true }) + "]"
			}
		}
	}
	return docs, pats
}

// TestRandomGroupsMatchEval: on seeded random corpora whose identical
// groups have up to six distinct members, every constructor answers every
// pattern exactly as the tree-pattern matcher does, and naive matching
// (no sibling-cover test) returns a superset.
func TestRandomGroupsMatchEval(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs, pats := groupedCorpus(rng, 120, 25)
		inner := make([]*xmltree.Document, len(docs))
		for i, d := range docs {
			inner[i] = &xmltree.Document{ID: d.id, Root: d.root}
		}
		cons := everyConstructor(t, docs, Config{})
		for _, q := range pats {
			want := query.Eval(inner, query.MustParse(q))
			for _, c := range cons {
				got, err := c.q.Query(q)
				if err != nil {
					t.Fatalf("seed %d %s: %s: %v", seed, c.name, q, err)
				}
				if !equalIDSlices(got, want) {
					t.Fatalf("seed %d %s: %s = %v, tree-pattern match %v", seed, c.name, q, got, want)
				}
				naive, err := c.q.run(context.Background(), q, engine.QueryOptions{Naive: true})
				if err != nil {
					t.Fatalf("seed %d %s: naive %s: %v", seed, c.name, q, err)
				}
				for _, id := range got {
					if _, ok := slices.BinarySearch(naive, id); !ok {
						t.Fatalf("seed %d %s: %s: naive answer %v misses %d", seed, c.name, q, naive, id)
					}
				}
			}
		}
	}
}

// TestQueryTooBroadEveryConstructor: a pattern whose wildcards instantiate
// past Config.InstantiationLimit fails with ErrQueryTooBroad, naming the
// limit, on every constructor — never a partial answer — while a pattern
// within the limit still answers.
func TestQueryTooBroadEveryConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	docs, _ := groupedCorpus(rng, 60, 0)
	for _, c := range everyConstructor(t, docs, Config{InstantiationLimit: 8}) {
		ids, err := c.q.Query("//*//*")
		var tb *query.TooBroadError
		if !errors.Is(err, ErrQueryTooBroad) || !errors.As(err, &tb) || tb.Limit != 8 || tb.Reached != 9 || ids != nil {
			t.Fatalf("%s: //*//* = %d ids, %v; want ErrQueryTooBroad at limit 8", c.name, len(ids), err)
		}
		if !strings.Contains(err.Error(), "limit of 8") {
			t.Fatalf("%s: error %q does not name the limit", c.name, err)
		}
		if ids, err := c.q.Query("/r/g/m0"); err != nil || len(ids) == 0 {
			t.Fatalf("%s: /r/g/m0 = %v, %v", c.name, ids, err)
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
		if err != nil || !equalIDSlices(got, want) {
			t.Fatalf("flat.OpenFile %s = %v, %v; want %v", q, got, err, want)
		}
		for name, x := range map[string]*Index{"Load": loaded, "LoadFile": mapped} {
			if got, err := x.Query(q); err != nil || !equalIDSlices(got, want) {
				t.Fatalf("%s %s = %v, %v; want %v", name, q, got, err, want)
			}
		}
	}
}
