package qcache_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/qcache"
	"xseq/internal/query"
)

// fakeEngine is a minimal engine.Engine whose answers and generation the
// test controls, with a call counter to observe what reaches the inner
// layer through the cache.
type fakeEngine struct {
	gen    atomic.Uint64
	calls  atomic.Int64
	answer func(pat *query.Pattern) []int32
}

func (f *fakeEngine) QueryWithContext(ctx context.Context, pat *query.Pattern, qo engine.QueryOptions) ([]int32, error) {
	f.calls.Add(1)
	if f.answer == nil {
		return nil, nil
	}
	return f.answer(pat), nil
}
func (f *fakeEngine) Generation() uint64 { return f.gen.Load() }

var _ engine.Engine = (*fakeEngine)(nil)

func fixedAnswer(ids ...int32) func(*query.Pattern) []int32 {
	return func(*query.Pattern) []int32 { return ids }
}

func mustQuery(t *testing.T, c *qcache.Cache, pat *query.Pattern, qo engine.QueryOptions) []int32 {
	t.Helper()
	ids, err := c.QueryWithContext(context.Background(), pat, qo)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestCacheHitMiss(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(1, 2, 3)}
	c := qcache.New(inner, 8)
	pat := query.MustParse("/a/b")

	first := mustQuery(t, c, pat, engine.QueryOptions{})
	second := mustQuery(t, c, pat, engine.QueryOptions{})
	if inner.calls.Load() != 1 {
		t.Fatalf("inner called %d times, want 1 (second query should hit)", inner.calls.Load())
	}
	for _, got := range [][]int32{first, second} {
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("answer corrupted: %v", got)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// A reparse of the same pattern text is the same cache key.
	if mustQuery(t, c, query.MustParse("/a/b"), engine.QueryOptions{}); inner.calls.Load() != 1 {
		t.Fatalf("reparsed pattern missed the cache: %d inner calls", inner.calls.Load())
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(7)}
	c := qcache.New(inner, 8)
	pat := query.MustParse("//x")

	mustQuery(t, c, pat, engine.QueryOptions{})
	inner.gen.Add(1) // a mutation became visible
	mustQuery(t, c, pat, engine.QueryOptions{})
	if inner.calls.Load() != 2 {
		t.Fatalf("stale entry served: inner called %d times, want 2", inner.calls.Load())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stale eviction not counted: %+v", st)
	}
	// The re-stored entry is current again.
	mustQuery(t, c, pat, engine.QueryOptions{})
	if inner.calls.Load() != 2 {
		t.Fatalf("fresh entry not served: inner called %d times", inner.calls.Load())
	}
}

// TestCacheStaleStoreNeverServed is the linearizability corner: a mutation
// lands while the inner query is in flight. The generation was read before
// the query, so the entry is stored under the superseded generation and the
// next lookup must discard it.
func TestCacheStaleStoreNeverServed(t *testing.T) {
	inner := &fakeEngine{}
	inner.answer = func(*query.Pattern) []int32 {
		inner.gen.Add(1) // mutation races the in-flight query
		return []int32{1}
	}
	c := qcache.New(inner, 8)
	pat := query.MustParse("/a")
	mustQuery(t, c, pat, engine.QueryOptions{})
	mustQuery(t, c, pat, engine.QueryOptions{})
	if inner.calls.Load() != 2 {
		t.Fatalf("entry stored across a mutation was served: %d inner calls", inner.calls.Load())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(1)}
	c := qcache.New(inner, 2)
	a, b, d := query.MustParse("/a"), query.MustParse("/b"), query.MustParse("/d")

	mustQuery(t, c, a, engine.QueryOptions{})
	mustQuery(t, c, b, engine.QueryOptions{})
	mustQuery(t, c, a, engine.QueryOptions{}) // refresh a: b is now LRU
	mustQuery(t, c, d, engine.QueryOptions{}) // evicts b
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v, want 2 entries / 1 eviction", st)
	}
	calls := inner.calls.Load()
	mustQuery(t, c, a, engine.QueryOptions{}) // survived (recently used)
	if inner.calls.Load() != calls {
		t.Fatal("recently-used entry was evicted")
	}
	mustQuery(t, c, b, engine.QueryOptions{}) // was evicted: recomputed
	if inner.calls.Load() != calls+1 {
		t.Fatal("LRU entry was not the one evicted")
	}
}

func TestCacheUncacheableBypass(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(1)}
	c := qcache.New(inner, 8)
	pat := query.MustParse("/a")
	opts := []engine.QueryOptions{
		{MaxResults: 5},
		{Naive: true},
	}
	for _, qo := range opts {
		mustQuery(t, c, pat, qo)
		mustQuery(t, c, pat, qo)
	}
	if inner.calls.Load() != int64(2*len(opts)) {
		t.Fatalf("uncacheable query memoized: %d inner calls, want %d", inner.calls.Load(), 2*len(opts))
	}
	st := c.Stats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("uncacheable queries polluted the cache: %+v", st)
	}
}

func TestCacheVerifyKeyedSeparately(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(1)}
	c := qcache.New(inner, 8)
	pat := query.MustParse("/a[b='x']")
	mustQuery(t, c, pat, engine.QueryOptions{})
	mustQuery(t, c, pat, engine.QueryOptions{Verify: true})
	if inner.calls.Load() != 2 {
		t.Fatalf("plain and verified shared an entry: %d inner calls", inner.calls.Load())
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	mustQuery(t, c, pat, engine.QueryOptions{Verify: true})
	if inner.calls.Load() != 2 {
		t.Fatal("verified entry did not hit")
	}
}

func TestCacheCopyIsolation(t *testing.T) {
	backing := []int32{1, 2, 3}
	inner := &fakeEngine{answer: func(*query.Pattern) []int32 { return backing }}
	c := qcache.New(inner, 8)
	pat := query.MustParse("/a")

	got := mustQuery(t, c, pat, engine.QueryOptions{})
	got[0] = 99     // caller scribbles on its copy
	backing[1] = 88 // inner engine's slice changes after the store
	again := mustQuery(t, c, pat, engine.QueryOptions{})
	if again[0] != 1 || again[1] != 2 || again[2] != 3 {
		t.Fatalf("cached entry not isolated: %v", again)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := qcache.New(&fakeEngine{}, 0)
	if got := c.Stats().Capacity; got != qcache.DefaultEntries {
		t.Fatalf("default capacity = %d, want %d", got, qcache.DefaultEntries)
	}
}

func TestCacheNilPatternBypass(t *testing.T) {
	inner := &fakeEngine{}
	c := qcache.New(inner, 8)
	if _, err := c.QueryWithContext(context.Background(), nil, engine.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("nil pattern cached: %+v", st)
	}
}

func TestCacheConcurrentMixedLoad(t *testing.T) {
	inner := &fakeEngine{answer: fixedAnswer(1, 2)}
	c := qcache.New(inner, 4)
	pats := make([]*query.Pattern, 8)
	for i := range pats {
		pats[i] = query.MustParse(fmt.Sprintf("/a/b%d", i))
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for k := 0; k < 200; k++ {
				if k%37 == 0 {
					inner.gen.Add(1)
				}
				ids, err := c.QueryWithContext(context.Background(), pats[(g+k)%len(pats)], engine.QueryOptions{})
				if err != nil || len(ids) != 2 {
					t.Errorf("goroutine %d: ids=%v err=%v", g, ids, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := c.Stats(); st.Entries > 4 {
		t.Fatalf("capacity exceeded: %+v", st)
	}
}
