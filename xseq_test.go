package xseq

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/xmltree"
)

const projectXML = `
<P>
  xml
  <R><M>tom</M><L>newyork</L></R>
  <D>
    <M>johnson</M>
    <U><M>mary</M><N>GUI</N></U>
    <U><N>engine</N></U>
    <L>boston</L>
  </D>
</P>`

func buildCorpus(t *testing.T, cfg Config) *Index {
	t.Helper()
	var docs []*Document
	sources := []string{
		projectXML,
		`<P><R><L>boston</L></R></P>`,
		`<P><D><L>newyork</L><M>smith</M></D></P>`,
	}
	for i, src := range sources {
		d, err := ParseDocumentString(int32(i+1), src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	ix, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestQuickstartFlow(t *testing.T) {
	ix := buildCorpus(t, Config{})
	cases := []struct {
		q    string
		want []int32
	}{
		{"/P/D/L[text='boston']", []int32{1}},
		{"//L[text='boston']", []int32{1, 2}},
		{"/P[R][D]", []int32{1}},
		{"/P/*/L", []int32{1, 2, 3}},
		{"//U/N[text='engine']", []int32{1}},
		{"/P/D[L='newyork'][M='smith']", []int32{3}},
		{"//nothing", nil},
	}
	for _, c := range cases {
		got, err := ix.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %v want %v", c.q, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: got %v want %v", c.q, got, c.want)
			}
		}
	}
}

func TestStats(t *testing.T) {
	for _, cfg := range []Config{{}, {Shards: 2}} {
		ix := buildCorpus(t, cfg)
		s := ix.Stats()
		if s.Documents != 3 || s.IndexNodes == 0 || s.Links == 0 {
			t.Fatalf("shards %d: stats = %+v", cfg.Shards, s)
		}
		if s.EstimatedDiskBytes != 4*3+8*int64(s.IndexNodes) {
			t.Fatalf("shards %d: disk bytes = %d", cfg.Shards, s.EstimatedDiskBytes)
		}
	}
}

func TestQueryVerified(t *testing.T) {
	ix := buildCorpus(t, Config{KeepDocuments: true, ValueSpace: 4}) // tiny space forces collisions
	got, err := ix.QueryVerified("/P/D/L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("verified = %v", got)
	}
	// Without KeepDocuments, QueryVerified errors.
	ix2 := buildCorpus(t, Config{})
	if _, err := ix2.QueryVerified("/P"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("QueryVerified without KeepDocuments = %v, want ErrUnsupported", err)
	}
}

func TestWeights(t *testing.T) {
	ix := buildCorpus(t, Config{Weights: map[string]float64{"P/D/L": 50}})
	got, err := ix.Query("/P/D/L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("weighted query = %v", got)
	}
	// Unknown weight paths fail at build time.
	d, _ := ParseDocumentString(1, "<a><b>x</b></a>")
	if _, err := Build([]*Document{d}, Config{Weights: map[string]float64{"a/zzz": 2}}); err == nil {
		t.Fatal("unknown weight path should fail")
	}
}

// TestDynamicWeightsSkipUnknownPaths: a dynamic index weighted by
// Config.Weights indexes each insert in a segment of its own, whose corpus
// may lack a weighted path; the insert still lands.
func TestDynamicWeightsSkipUnknownPaths(t *testing.T) {
	d0, _ := ParseDocumentString(0, "<r><a><b/></a></r>")
	d1, _ := ParseDocumentString(1, "<r><c/></r>")
	di, err := BuildDynamic([]*Document{d0}, Config{Weights: map[string]float64{"r/a/b": 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if err := di.Insert(d1); err != nil {
		t.Fatalf("insert of a document without r/a/b: %v", err)
	}
	for q, want := range map[string][]int32{"/r/c": {1}, "/r/a/b": {0}, "/r": {0, 1}} {
		if got, err := di.Query(q); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s = %v (%v), want %v", q, got, err, want)
		}
	}
}

func TestPagedIO(t *testing.T) {
	ix := buildCorpus(t, Config{})
	pages, err := ix.EnablePagedIO(8)
	if err != nil {
		t.Fatal(err)
	}
	if pages <= 0 {
		t.Fatalf("pages = %d", pages)
	}
	if _, err := ix.Query("//L"); err != nil {
		t.Fatal(err)
	}
	if ix.IO().Reads == 0 || ix.IO().DiskAccesses == 0 {
		t.Fatalf("io = %+v", ix.IO())
	}
	ix.ResetIO()
	if ix.IO().Reads != 0 {
		t.Fatal("ResetIO kept counters")
	}
	ix.DropIOCache()
	ix.DisablePagedIO()
	if ix.IO().Reads != 0 {
		t.Fatal("detached IO should be zero")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("empty corpus should fail")
	}
	if _, err := Build([]*Document{nil}, Config{}); err == nil {
		t.Fatal("nil document should fail")
	}
}

func TestQueryParseError(t *testing.T) {
	ix := buildCorpus(t, Config{})
	if _, err := ix.Query("/a["); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := ix.QueryVerified("/a["); err == nil {
		t.Fatal("bad verified query should fail")
	}
}

func TestDocumentAccessors(t *testing.T) {
	d, err := ParseDocumentString(9, "<a><b>x</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() != 9 || d.NumNodes() != 3 {
		t.Fatalf("id=%d nodes=%d", d.ID(), d.NumNodes())
	}
	var buf bytes.Buffer
	if err := d.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<b>x</b>") {
		t.Fatalf("xml = %q", buf.String())
	}
	if d.String() != `a(b("x"))` {
		t.Fatalf("String = %q", d.String())
	}
	if _, err := ParseDocumentString(1, "not xml"); err == nil {
		t.Fatal("bad xml should fail")
	}
}

func TestSchemaOutline(t *testing.T) {
	ix := buildCorpus(t, Config{})
	out, err := ix.SchemaOutline()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P") || !strings.Contains(out, "p(C|root)") {
		t.Fatalf("outline = %q", out)
	}
	// Loaded indexes have no outline (but query fine).
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.SchemaOutline(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("loaded index outline err = %v, want ErrUnsupported", err)
	}
}

func TestFetchDocuments(t *testing.T) {
	ix := buildCorpus(t, Config{KeepDocuments: true})
	ids, err := ix.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := ix.FetchDocuments(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(ids) {
		t.Fatalf("fetched %d of %d", len(docs), len(ids))
	}
	for i, d := range docs {
		if d.ID() != ids[i] {
			t.Fatalf("order broken: %d vs %d", d.ID(), ids[i])
		}
	}
	// Unknown ids are skipped.
	some, err := ix.FetchDocuments([]int32{ids[0], 9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 1 {
		t.Fatalf("unknown id fetched: %v", some)
	}
	// Without KeepDocuments it errors.
	ix2 := buildCorpus(t, Config{})
	if _, err := ix2.FetchDocuments(ids); err == nil {
		t.Fatal("FetchDocuments without KeepDocuments should fail")
	}
}

func TestQueryExplainAndLimit(t *testing.T) {
	ix := buildCorpus(t, Config{})
	ids, ex, err := ix.QueryExplain("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ex.Results != 2 {
		t.Fatalf("ids=%v explain=%+v", ids, ex)
	}
	if ex.Instances == 0 || ex.LinkProbes == 0 || ex.EntriesScanned == 0 {
		t.Fatalf("explain counters empty: %+v", ex)
	}
	capped, err := ix.QueryLimit("//L[text='boston']", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 1 {
		t.Fatalf("capped = %v", capped)
	}
	if _, _, err := ix.QueryExplain("/["); err == nil {
		t.Fatal("bad explain query should fail")
	}
	if _, err := ix.QueryLimit("/[", 1); err == nil {
		t.Fatal("bad limit query should fail")
	}
}

func TestDynamicIndexFacade(t *testing.T) {
	d0, _ := ParseDocumentString(0, `<P><R><L>boston</L></R></P>`)
	dyn, err := BuildDynamic([]*Document{d0}, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := ParseDocumentString(1, `<P><D><L>boston</L></D></P>`)
	if err := dyn.Insert(d1); err != nil {
		t.Fatal(err)
	}
	got, err := dyn.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("dynamic query = %v", got)
	}
	if dyn.PendingDocuments() != 1 || dyn.NumDocuments() != 2 {
		t.Fatalf("pending=%d docs=%d", dyn.PendingDocuments(), dyn.NumDocuments())
	}
	if err := dyn.Compact(); err != nil {
		t.Fatal(err)
	}
	if dyn.PendingDocuments() != 0 {
		t.Fatal("compact left pending docs")
	}
	got2, err := dyn.Query("//L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Fatalf("post-compact query = %v", got2)
	}
	if err := dyn.Insert(nil); err == nil {
		t.Fatal("nil insert should fail")
	}
	if _, err := dyn.Query("/["); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := BuildDynamic([]*Document{nil}, Config{}, 0); err == nil {
		t.Fatal("nil initial doc should fail")
	}
}

func TestSaveLoadFacade(t *testing.T) {
	ix := buildCorpus(t, Config{KeepDocuments: true})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stats(), ix.Stats()) {
		t.Fatalf("stats changed: %+v vs %+v", back.Stats(), ix.Stats())
	}
	for _, q := range []string{"//L[text='boston']", "/P[R][D]", "/P/*/L"} {
		want, err := ix.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: loaded %v want %v", q, got, want)
		}
	}
	// Verified queries survive (documents serialized).
	v, err := back.QueryVerified("/P/D/L[text='boston']")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || v[0] != 1 {
		t.Fatalf("verified after load = %v", v)
	}
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad stream should fail")
	}
}

func TestTextValuesConfig(t *testing.T) {
	var docs []*Document
	for i, city := range []string{"boston", "bologna", "newyork"} {
		d, err := ParseDocumentString(int32(i), "<P><L>"+city+"</L></P>")
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	ix, err := Build(docs, Config{TextValues: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query("/P/L[text='bo*']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("prefix query = %v", got)
	}
	exact, err := ix.Query("/P/L[text='newyork']")
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 || exact[0] != 2 {
		t.Fatalf("exact text query = %v", exact)
	}
}

func TestMixedRootCorpus(t *testing.T) {
	a, _ := ParseDocumentString(1, "<article><title>t1</title></article>")
	b, _ := ParseDocumentString(2, "<book><isbn>i1</isbn></book>")
	ix, err := Build([]*Document{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query("/book/isbn")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("forest query = %v", got)
	}
}

func TestQueryLimitContext(t *testing.T) {
	ix := buildCorpus(t, Config{})
	ids, err := ix.QueryLimitContext(context.Background(), "//L[text='boston']", 1)
	if err != nil || len(ids) != 1 {
		t.Fatalf("limited = %v, %v", ids, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryLimitContext(ctx, "//L[text='boston']", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled limit query = %v, want context.Canceled", err)
	}
	if _, err := ix.QueryLimitContext(context.Background(), "/[", 1); err == nil {
		t.Fatal("bad query should fail")
	}
	// The plain entry point must stay equivalent.
	plain, err := ix.QueryLimit("//L[text='boston']", 1)
	if err != nil || len(plain) != 1 {
		t.Fatalf("QueryLimit = %v, %v", plain, err)
	}
}

func TestSwapper(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.idx")
	ix1 := buildCorpus(t, Config{})
	if err := ix1.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	sw := NewSwapper(ix1)
	if sw.Current() != ix1 {
		t.Fatal("Current != initial")
	}
	if sw.Swap(nil) != ix1 || sw.Current() != ix1 {
		t.Fatal("Swap(nil) must keep the current snapshot published")
	}

	// Successful file swap publishes the fresh snapshot.
	got, err := sw.SwapFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == ix1 || sw.Current() != got {
		t.Fatal("SwapFromFile did not publish the fresh snapshot")
	}
	if ids, err := sw.Current().Query("//L[text='boston']"); err != nil || len(ids) != 2 {
		t.Fatalf("swapped snapshot query = %v, %v", ids, err)
	}

	// A corrupt file must leave the old snapshot serving.
	prev := sw.Current()
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	cur, err := sw.SwapFromFile(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt swap error = %v, want *CorruptError", err)
	}
	if cur != prev || sw.Current() != prev {
		t.Fatal("corrupt swap must not disturb the published snapshot")
	}

	// Nil-seeded swapper serves nothing until the first success.
	empty := NewSwapper(nil)
	if empty.Current() != nil {
		t.Fatal("nil-seeded Current != nil")
	}
	if _, err := empty.SwapFromFile(path); err == nil {
		t.Fatal("corrupt first swap should fail")
	}
	if empty.Current() != nil {
		t.Fatal("failed first swap must not publish anything")
	}
}

func TestDynamicHealth(t *testing.T) {
	// fail, when set, runs before every compaction-sized build (the initial
	// document plus two or more pending ones).
	var fail func(ctx context.Context) error
	wrap := func(b engine.Builder) engine.Builder {
		return func(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
			if fail != nil && len(docs) >= 3 {
				if err := fail(ctx); err != nil {
					return nil, err
				}
			}
			return b(ctx, docs)
		}
	}
	d0, _ := ParseDocumentString(0, `<P><R><L>boston</L></R></P>`)
	dyn, err := buildDynamic([]*Document{d0}, Config{}, 2, wrap)
	if err != nil {
		t.Fatal(err)
	}
	h := dyn.Health()
	if h.Degraded || h.Documents != 1 || h.Pending != 0 || h.FailedCompactions != 0 {
		t.Fatalf("fresh health = %+v", h)
	}
	d1, _ := ParseDocumentString(1, `<P><D><L>boston</L></D></P>`)
	if err := dyn.Insert(d1); err != nil {
		t.Fatal(err)
	}

	// The caller hangs up while its insert's automatic compaction runs: the
	// compaction belongs to the index, so it lands anyway and nothing is
	// counted as a failure.
	ctx, cancel := context.WithCancel(context.Background())
	fail = func(context.Context) error { cancel(); return nil }
	d2, _ := ParseDocumentString(2, `<P><R><L>newyork</L></R></P>`)
	if err := dyn.InsertContext(ctx, d2); err != nil {
		t.Fatalf("insert whose caller left during compaction = %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the compaction build never ran")
	}
	h = dyn.Health()
	if h.Degraded || h.FailedCompactions != 0 || h.Compactions != 1 || h.Documents != 3 || h.Pending != 0 {
		t.Fatalf("health after a hang-up during compaction = %+v", h)
	}

	// A caller whose context has already ended is rejected before its
	// document is logged or applied.
	d3, _ := ParseDocumentString(3, `<P><R><L>chicago</L></R></P>`)
	if err := dyn.InsertContext(ctx, d3); !errors.Is(err, ErrNotApplied) || !errors.Is(err, context.Canceled) {
		t.Fatalf("insert on an ended context = %v, want ErrNotApplied wrapping context.Canceled", err)
	}
	if h := dyn.Health(); h.Documents != 3 {
		t.Fatalf("a rejected insert was applied: %+v", h)
	}

	// A builder failure in the next automatic compaction: the insert lands,
	// the old state keeps serving, and Health reports degraded-but-serving.
	fail = func(context.Context) error { return errors.New("injected build failure") }
	if err := dyn.Insert(d3); err != nil {
		t.Fatal(err)
	}
	d4, _ := ParseDocumentString(4, `<P><D><L>denver</L></D></P>`)
	err = dyn.Insert(d4)
	var cerr *CompactionError
	if !errors.As(err, &cerr) {
		t.Fatalf("failed auto-compaction = %v, want *CompactionError", err)
	}
	h = dyn.Health()
	if !h.Degraded || h.LastCompactionError == "" || h.FailedCompactions != 1 || h.Compactions != 1 {
		t.Fatalf("degraded health = %+v", h)
	}
	if h.Documents != 5 || h.Pending != 2 {
		t.Fatalf("degraded health counts = %+v", h)
	}
	// Still serving: all five documents answer.
	if ids, err := dyn.Query("//L"); err != nil || len(ids) != 5 {
		t.Fatalf("degraded query = %v, %v", ids, err)
	}

	// A successful compaction heals the summary.
	fail = nil
	if err := dyn.Compact(); err != nil {
		t.Fatal(err)
	}
	h = dyn.Health()
	if h.Degraded || h.LastCompactionError != "" || h.Compactions != 2 || h.FailedCompactions != 1 || h.Pending != 0 {
		t.Fatalf("healed health = %+v", h)
	}
}
