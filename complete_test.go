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
	"xseq/internal/sequence"
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
// a levels, which r's a children may read in three distinct ways. Past a
// limit of 2 the query fails; it does not answer from the first readings,
// which lack a(e,e,e) and dismiss document 0.
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
	for _, c := range everyConstructor(t, docs, Config{InstantiationLimit: 2}, defaultSchedule(len(docs)), 0) {
		if ids, err := c.q.Query(q); !errors.Is(err, ErrQueryTooBroad) || ids != nil {
			t.Fatalf("%s: %s at limit 2 = %v, %v; want ErrQueryTooBroad", c.name, q, ids, err)
		}
	}
	for _, c := range everyConstructor(t, docs, Config{}, defaultSchedule(len(docs)), 0) {
		if ids, err := c.q.Query(q); err != nil || !slices.Equal(ids, []int32{0, 1}) {
			t.Fatalf("%s: %s = %v, %v; want [0 1]", c.name, q, ids, err)
		}
	}
}

// parseDocs parses srcs as documents 0, 1, ...
func parseDocs(t *testing.T, srcs ...string) []*Document {
	t.Helper()
	docs := make([]*Document, len(srcs))
	for i, src := range srcs {
		d, err := ParseDocumentString(int32(i), src)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	return docs
}

// TestSpelledReadingsDistinct: k //e steps under /r, over documents whose
// only e path is r/a/e, spell out k implied a levels. Readings that differ
// only by which e went to which a are one, so there is one per integer
// partition of k: 7 for five steps, 22 for eight, where the set partitions
// (52 and 4,140) would pass the default limit. Every constructor answers
// as the tree-pattern match does.
func TestSpelledReadingsDistinct(t *testing.T) {
	docs := parseDocs(t,
		"<r><a><e/><e/><e/><e/><e/><e/><e/><e/></a></r>",
		"<r><a><e/><e/><e/></a><a><e/><e/><e/><e/><e/></a></r>",
		"<r><a><e/><e/></a><a><e/></a></r>",
		"<r><a/><a><e/><e/><e/><e/><e/></a></r>",
		"<r><a><e/></a><a><e/><e/><e/><e/><e/><e/></a></r>")
	var raw []*xmltree.Document
	for _, d := range docs {
		raw = append(raw, &xmltree.Document{ID: d.id, Root: d.root})
	}
	ix, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons := everyConstructor(t, docs, Config{}, defaultSchedule(len(docs)), 0)
	for _, c := range []struct{ k, instances int }{{5, 7}, {8, 22}} {
		q := "/r" + strings.Repeat("[//e]", c.k)
		want := query.Eval(raw, query.MustParse(q))
		if len(want) == 0 || len(want) == len(docs) {
			t.Fatalf("%s: tree-pattern match %v separates no documents", q, want)
		}
		if _, ex, err := ix.QueryExplain(q); err != nil || ex.Instances != c.instances {
			t.Fatalf("%s: %d instances, %v; want %d", q, ex.Instances, err, c.instances)
		}
		for _, con := range cons {
			if ids, err := con.q.Query(q); err != nil || !slices.Equal(ids, want) {
				t.Fatalf("%s: %s = %v, %v; want %v", con.name, q, ids, err, want)
			}
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

// withOldMeta rewrites a flat snapshot's META as edit leaves it — with the
// retired OrderEnumerationLimit, or the repeat list older snapshots carried
// — re-laying the sections as the format prescribes (header, section
// table, header CRC, 8-aligned payloads).
func withOldMeta(t *testing.T, snap []byte, edit func(*oldFlatMeta)) []byte {
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
	edit(&meta)
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
	old := withOldMeta(t, buf.Bytes(), func(m *oldFlatMeta) { m.OrderEnumerationLimit = 64 })
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

// withRepeatList rewrites a snapshot's META as it was written before the
// schema decided blocking: with the corpus repeat list, and with no value
// slot repeats in the schema, which Infer did not record then.
func withRepeatList(t *testing.T, snap []byte, roots []*xmltree.Node) []byte {
	t.Helper()
	fl, err := flat.OpenBytes(snap, flat.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	var repeat []pathenc.PathID
	for p := range sequence.RepeatPaths(roots, fl.Encoder()) {
		repeat = append(repeat, p)
	}
	slices.Sort(repeat)
	if len(repeat) == 0 {
		t.Fatal("the corpus repeats no path")
	}
	var clearSlots func(n *schema.Node)
	clearSlots = func(n *schema.Node) {
		if n.IsValue {
			n.MaxRepeat = 0
		}
		for _, c := range n.Children {
			clearSlots(c)
		}
	}
	return withOldMeta(t, snap, func(m *oldFlatMeta) {
		m.Repeat = repeat
		clearSlots(m.Schema)
	})
}

// TestRepeatListSnapshots: a snapshot written before the schema decided
// blocking lists the paths its data blocked. An element-only one opens and
// answers as the index it was saved from. A text-mode one over mixed
// content lists a first character two values share, which its schema does
// not let repeat: it answers alike too, or fails to open with a
// *CorruptError that says to rebuild — never differently.
func TestRepeatListSnapshots(t *testing.T) {
	for _, c := range []struct {
		name    string
		docs    []*Document
		cfg     Config
		queries []string
		mayFail bool
	}{
		{"element-only", probeDocs(t), Config{}, []string{probeQuery, "/r/a/x", "//a[z]", "/r[a/x][a/y]"}, false},
		{"text mixed content", parseDocs(t, "<r><a>ab<b/>ac</a></r>", "<r><a>ac</a><c/></r>", "<r><a>ba<b/>ab</a></r>", "<r><a>ab</a><a>ac<b/></a></r>"),
			Config{TextValues: true}, []string{"//a", "/r/a[b]", "/r/a[text='ab']", "/r/a[text='ac'][b]", "/r/a[text='ab'][text='ac']"}, true},
	} {
		ix, err := Build(c.docs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		roots := make([]*xmltree.Node, len(c.docs))
		for i, d := range c.docs {
			roots[i] = d.root
		}
		old := withRepeatList(t, buf.Bytes(), roots)
		loaded, err := Load(bytes.NewReader(old))
		var ce *CorruptError
		if err != nil {
			if !c.mayFail || !errors.As(err, &ce) || !strings.Contains(err.Error(), "rebuild") {
				t.Fatalf("%s: Load: %v", c.name, err)
			}
			t.Logf("%s: %v", c.name, err)
			continue
		}
		for _, q := range c.queries {
			want, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := loaded.Query(q); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: %s = %v, %v; want %v", c.name, q, got, err, want)
			}
		}
	}
}
