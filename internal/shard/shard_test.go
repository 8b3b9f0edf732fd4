package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/index"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/schema"
	"xseq/internal/sequence"
	"xseq/internal/telemetry"
	"xseq/internal/xmltree"
)

// csBuilder is the standard test Builder: infer a schema over the
// partition, sequence with g_best, build the index.
func csBuilder(keep bool) Builder {
	return func(ctx context.Context, docs []*xmltree.Document) (*index.Index, error) {
		roots := make([]*xmltree.Node, len(docs))
		for i, d := range docs {
			roots[i] = d.Root
		}
		sch, err := schema.Infer(roots)
		if err != nil {
			return nil, err
		}
		enc := pathenc.NewEncoder(1 << 20)
		return index.BuildContext(ctx, docs, index.Options{
			Encoder:       enc,
			Strategy:      sequence.NewProbability(sch, enc),
			KeepDocuments: keep,
		})
	}
}

func xmarkDocs(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	_, docs, err := datagen.XMark(datagen.XMarkOptions{Seed: 7}, n)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

func synthDocs(t testing.TB, n int) []*xmltree.Document {
	t.Helper()
	p, err := datagen.ParseSynthName("L3F5A25I0P40")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 7
	_, docs, err := datagen.Synth(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

func buildSharded(t testing.TB, docs []*xmltree.Document, shards, workers int, keep bool) *Index {
	t.Helper()
	s, err := BuildContext(context.Background(), docs, csBuilder(keep), Options{Shards: shards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildMono(t testing.TB, docs []*xmltree.Document, keep bool) *index.Index {
	t.Helper()
	ix, err := csBuilder(keep)(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var xmarkQueries = []string{
	datagen.XMarkQ1,
	datagen.XMarkQ2,
	datagen.XMarkQ3,
	"/site//person/name",
	"//item/location",
	"/site/*",
	"//date",
}

var synthQueries = []string{
	"/e1",
	"/e1/e2",
	"//e3",
	"/e1/*",
	"//e2//*",
}

// TestEquivalence asserts the partitioning invariant end to end: for every
// query, a sharded index returns exactly the ids (same set, same ascending
// order) the monolithic index over the same corpus returns, across shard
// counts that divide the corpus evenly, unevenly, and beyond its size.
func TestEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		docs    []*xmltree.Document
		queries []string
	}{
		{"xmark", xmarkDocs(t, 300), xmarkQueries},
		{"synth", synthDocs(t, 300), synthQueries},
	}
	for _, c := range cases {
		mono := buildMono(t, c.docs, false)
		for _, shards := range []int{2, 3, 8} {
			s := buildSharded(t, c.docs, shards, 0, false)
			if s.NumShards() != shards {
				t.Fatalf("%s: NumShards = %d, want %d", c.name, s.NumShards(), shards)
			}
			if s.NumDocuments() != len(c.docs) {
				t.Fatalf("%s: NumDocuments = %d, want %d", c.name, s.NumDocuments(), len(c.docs))
			}
			for _, q := range c.queries {
				pat := query.MustParse(q)
				want, err := mono.Query(pat)
				if err != nil {
					t.Fatalf("%s: mono %s: %v", c.name, q, err)
				}
				got, err := s.Query(pat)
				if err != nil {
					t.Fatalf("%s/%d shards: %s: %v", c.name, shards, q, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%d shards: %s: sharded %v, monolithic %v", c.name, shards, q, got, want)
				}
			}
		}
	}
}

// TestShardOfDistribution checks the partition hash spreads dense
// sequential ids across shards instead of striping or clumping.
func TestShardOfDistribution(t *testing.T) {
	const n, shards = 8192, 8
	counts := make([]int, shards)
	for id := int32(0); id < n; id++ {
		k := ShardOf(id, DefaultSeed, shards)
		if k < 0 || k >= shards {
			t.Fatalf("ShardOf(%d) = %d out of range", id, k)
		}
		counts[k]++
	}
	want := n / shards
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d holds %d of %d docs (want ~%d): %v", i, c, n, want, counts)
		}
	}
	if ShardOf(42, DefaultSeed, 1) != 0 {
		t.Fatal("single shard must always be 0")
	}
}

// TestEmptyShards: more shards than documents must build, persist the
// partition honestly (empty shards stay nil), and answer identically.
func TestEmptyShards(t *testing.T) {
	docs := xmarkDocs(t, 3)
	mono := buildMono(t, docs, false)
	s := buildSharded(t, docs, 16, 4, false)
	empty := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i) == nil {
			empty++
		}
	}
	if empty < 16-3 {
		t.Fatalf("expected at least %d empty shards, found %d", 16-3, empty)
	}
	for _, q := range xmarkQueries {
		pat := query.MustParse(q)
		want, _ := mono.Query(pat)
		got, err := s.Query(pat)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sharded %v, monolithic %v", q, got, want)
		}
	}
}

// TestBuildValidation covers the nil/negative document checks.
func TestBuildValidation(t *testing.T) {
	if _, err := BuildContext(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("nil builder should fail")
	}
	bad := []*xmltree.Document{nil}
	if _, err := BuildContext(context.Background(), bad, csBuilder(false), Options{}); err == nil {
		t.Fatal("nil document should fail")
	}
	neg := []*xmltree.Document{{ID: -1, Root: xmltree.Figure1()}}
	if _, err := BuildContext(context.Background(), neg, csBuilder(false), Options{}); err == nil {
		t.Fatal("negative id should fail")
	}
}

// TestBuildCancellation: a cancelled context aborts the parallel build and
// surfaces the context's own error.
func TestBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildContext(ctx, xmarkDocs(t, 50), csBuilder(false), Options{Shards: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildFirstErrorCancelsSiblings: one failing shard build must cancel
// the others — a sibling blocked on its context unblocks, so BuildContext
// returns instead of hanging.
func TestBuildFirstErrorCancelsSiblings(t *testing.T) {
	docs := xmarkDocs(t, 64)
	boom := fmt.Errorf("flaky storage")
	builder := func(ctx context.Context, part []*xmltree.Document) (*index.Index, error) {
		for _, d := range part {
			if d.ID == docs[0].ID {
				return nil, boom
			}
		}
		// Sibling shards park until cancellation reaches them.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := BuildContext(context.Background(), docs, builder, Options{Shards: 4, Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the builder's own failure", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("error does not attribute the shard: %v", err)
	}
}

// TestBuildPanicContained: a panicking shard builder degrades into a build
// error, never a process crash.
func TestBuildPanicContained(t *testing.T) {
	builder := func(ctx context.Context, part []*xmltree.Document) (*index.Index, error) {
		panic("builder bug")
	}
	_, err := BuildContext(context.Background(), xmarkDocs(t, 16), builder, Options{Shards: 4})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want contained panic", err)
	}
}

// TestQueryLimit: a Limit query returns exactly max ids, each of them a
// member of the unlimited result, in ascending order.
func TestQueryLimit(t *testing.T) {
	docs := xmarkDocs(t, 200)
	s := buildSharded(t, docs, 4, 0, false)
	pat := query.MustParse("//date")
	full, err := s.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("test needs a common query, got %d hits", len(full))
	}
	members := make(map[int32]bool, len(full))
	for _, id := range full {
		members[id] = true
	}
	for _, max := range []int{1, 5, len(full), len(full) + 100} {
		got, err := s.QueryWithContext(context.Background(), pat, index.QueryOptions{MaxResults: max})
		if err != nil {
			t.Fatalf("limit %d: %v", max, err)
		}
		want := max
		if want > len(full) {
			want = len(full)
		}
		if len(got) != want {
			t.Fatalf("limit %d: returned %d ids", max, len(got))
		}
		for i, id := range got {
			if !members[id] {
				t.Fatalf("limit %d: id %d is not in the full result", max, id)
			}
			if i > 0 && got[i-1] >= id {
				t.Fatalf("limit %d: ids out of order: %v", max, got)
			}
		}
		// A limit covering the whole result must reproduce it exactly.
		if max >= len(full) && !slices.Equal(got, full) {
			t.Fatalf("limit %d: %v, want full %v", max, got, full)
		}
	}
}

// TestQueryStatsMerged: every shard's kernel counts into the request's
// trace, so the fan-out's counters are the sums of the shards' own, and the
// shards' answers add up to the merged one.
func TestQueryStatsMerged(t *testing.T) {
	s := buildSharded(t, xmarkDocs(t, 100), 4, 0, false)
	pat := query.MustParse("//date")
	count := func(e engine.Engine) ([]int32, [6]int64) {
		tr := telemetry.GetTrace()
		defer telemetry.PutTrace(tr)
		ids, err := e.QueryWithContext(telemetry.WithTrace(context.Background(), tr), pat, engine.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ids, [6]int64{tr.Instances(), tr.Orders(), tr.LinkProbes(), tr.EntriesScanned(), tr.CoverChecks(), tr.CoverRejections()}
	}
	ids, got := count(s)
	var want [6]int64
	results := 0
	for i := 0; i < s.NumShards(); i++ {
		if sh := s.Shard(i); sh != nil {
			part, c := count(sh)
			results += len(part)
			for k := range want {
				want[k] += c[k]
			}
		}
	}
	if results != len(ids) {
		t.Fatalf("shard results sum to %d, ids = %d", results, len(ids))
	}
	if got != want {
		t.Fatalf("fan-out counters %v, shard sums %v", got, want)
	}
	if got[0] == 0 || got[2] == 0 || got[3] == 0 {
		t.Fatalf("merged counters look empty: %v", got)
	}
}

// TestQueryCancellation: a cancelled caller context aborts the fan-out with
// the context's error.
func TestQueryCancellation(t *testing.T) {
	s := buildSharded(t, xmarkDocs(t, 100), 4, 0, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, query.MustParse("//date")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFanOutDrainRace hammers one sharded index from many goroutines —
// plain queries, limit queries (whose early stop cancels sibling shards),
// and caller-cancelled queries — to prove the fan-out/merge path is
// race-free and always drains its goroutines. Run with -race.
func TestFanOutDrainRace(t *testing.T) {
	docs := xmarkDocs(t, 150)
	s := buildSharded(t, docs, 8, 0, false)
	mono := buildMono(t, docs, false)
	pat := query.MustParse("//date")
	want, err := mono.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g % 3 {
				case 0: // full query: must match the monolithic result exactly
					got, err := s.Query(pat)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if !slices.Equal(got, want) {
						t.Errorf("race run diverged: %v vs %v", got, want)
						return
					}
				case 1: // limit query: early stop cancels sibling shards
					got, err := s.QueryWithContext(context.Background(), pat, index.QueryOptions{MaxResults: 3})
					if err != nil {
						t.Errorf("limit query: %v", err)
						return
					}
					if len(got) != 3 {
						t.Errorf("limit query returned %d ids", len(got))
						return
					}
				default: // cancelled mid-flight: must drain, never deadlock
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() { cancel(); close(done) }()
					_, err := s.QueryContext(ctx, pat)
					<-done
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled query: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAggregateAccessors: node/link/doc counts sum across shards and feed
// the paper's sizing formula.
func TestAggregateAccessors(t *testing.T) {
	docs := xmarkDocs(t, 60)
	s := buildSharded(t, docs, 4, 0, true)
	if s.NumDocuments() != 60 {
		t.Fatalf("NumDocuments = %d", s.NumDocuments())
	}
	sumNodes, sumLinks, sumDocs := 0, 0, 0
	for i := 0; i < s.NumShards(); i++ {
		if sh := s.Shard(i); sh != nil {
			sumNodes += sh.NumNodes()
			sumLinks += sh.NumLinks()
			sumDocs += sh.NumDocuments()
		}
	}
	if sumDocs != 60 || s.NumNodes() != sumNodes || s.NumLinks() != sumLinks {
		t.Fatalf("aggregates diverge: docs %d, nodes %d vs %d, links %d vs %d",
			sumDocs, s.NumNodes(), sumNodes, s.NumLinks(), sumLinks)
	}
	if got := len(s.Documents()); got != 60 {
		t.Fatalf("Documents() returned %d", got)
	}
}
