package flat

import (
	"context"
	"slices"
	"sync"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/pager"
	"xseq/internal/query"
)

// accountingPatterns mixes selective twigs, long link scans and "/site",
// whose terminal match collects every end node: its END-block run covers
// the whole ENDS section and so crosses page boundaries.
var accountingPatterns = []string{
	datagen.XMarkQ1,
	datagen.XMarkQ2,
	datagen.XMarkQ3,
	"/site//person/name",
	"//item/location",
	"//date",
	"/site/*",
	"/site",
}

func parseAll(t testing.TB, qs []string) []*query.Pattern {
	t.Helper()
	pats := make([]*query.Pattern, len(qs))
	for i, q := range qs {
		pats[i] = query.MustParse(q)
	}
	return pats
}

// endsPagesTouched counts the marked pages of the ENDS section on the
// bitmap path.
func endsPagesTouched(ix *Index) int {
	a := ix.acct.Load()
	s := ix.sections[secEnds]
	n := 0
	for p := s.off / pager.PageSize; p <= (s.off+s.len-1)/pager.PageSize; p++ {
		if a.touched[p/64].Load()&(1<<(p%64)) != 0 {
			n++
		}
	}
	return n
}

// TestFlatPagerExactness: a pool that covers the whole file can never
// evict, so the touched-page bitmap must keep exactly the counts its LRU
// keeps. The same bytes are opened twice, one copy on each path, and every
// count is compared cold, warm (after ResetPagerStats) and after
// DropPagerCache.
func TestFlatPagerExactness(t *testing.T) {
	// 1,000 records: the ENDS section spans two pages.
	docs := corpus(t, "xmark", 1000)
	_, blob := flatten(t, buildMono(t, docs, false), Options{})
	bitmap, err := OpenBytes(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := OpenBytes(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capacity := int(bitmap.TotalPages())
	if _, err := bitmap.AttachPager(pager.NewPool(capacity)); err != nil {
		t.Fatal(err)
	}
	lru.AttachPagerLRU(pager.NewPool(capacity))
	if bitmap.acct.Load().touched == nil || lru.acct.Load().pool == nil {
		t.Fatal("the two copies are not on different accounting paths")
	}

	pats := parseAll(t, accountingPatterns)
	ctx := context.Background()
	run := func() {
		t.Helper()
		for i, pat := range pats {
			want, err := lru.QueryWithContext(ctx, pat, engine.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := bitmap.QueryWithContext(ctx, pat, engine.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: bitmap path %v, LRU path %v", accountingPatterns[i], got, want)
			}
		}
	}
	check := func(phase string) {
		t.Helper()
		got, want := bitmap.PagerStats(), lru.PagerStats()
		if got != want {
			t.Errorf("%s: bitmap %+v, LRU %+v", phase, got, want)
		}
		if got, want := bitmap.ResidentPages(), lru.ResidentPages(); got != want {
			t.Errorf("%s: resident pages bitmap %d, LRU %d", phase, got, want)
		}
	}

	run()
	check("cold")
	if st := bitmap.PagerStats(); st.Reads == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cold run recorded no reads, hits or misses: %+v", st)
	}
	if n := endsPagesTouched(bitmap); n < 2 {
		t.Fatalf("END-block reads touched %d ENDS page(s); the pattern set must cross a page", n)
	}
	bitmap.ResetPagerStats()
	lru.ResetPagerStats()
	check("reset")
	run()
	check("warm")
	if st := bitmap.PagerStats(); st.Misses != 0 {
		t.Fatalf("warm rerun missed %d pages", st.Misses)
	}
	bitmap.DropPagerCache()
	lru.DropPagerCache()
	check("dropped")
	if bitmap.ResidentPages() != 0 {
		t.Fatalf("DropPagerCache left %d pages resident", bitmap.ResidentPages())
	}
	run()
	check("cold after drop")
}

// TestFlatPagerAccountingRace: queries on the bitmap path from several
// goroutines, with a reader polling the counters throughout, lose no read
// and count every page's first touch once. Run with -race.
func TestFlatPagerAccountingRace(t *testing.T) {
	docs := corpus(t, "xmark", 200)
	f, _ := flatten(t, buildMono(t, docs, false), Options{})
	total, err := f.AttachPager(pager.NewPool(int(f.TotalPages())))
	if err != nil {
		t.Fatal(err)
	}
	pats := parseAll(t, accountingPatterns)
	ctx := context.Background()

	// A query's reads do not depend on what is resident.
	want := make([][]int32, len(pats))
	var single int64
	for i, pat := range pats {
		f.ResetPagerStats()
		if want[i], err = f.QueryWithContext(ctx, pat, engine.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		single += f.PagerStats().Reads
	}
	f.DropPagerCache()

	const workers, rounds = 4, 5
	var wg sync.WaitGroup
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			st := f.PagerStats()
			// A query marks a page before it publishes the miss, and its
			// reads before its misses.
			if res := f.ResidentPages(); st.Hits+st.Misses != st.Reads || st.Misses > res || res > total {
				t.Errorf("mid-run: %+v, %d of %d pages resident", st, res, total)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range pats {
					i := (g + k) % len(pats)
					got, err := f.QueryWithContext(ctx, pats[i], engine.QueryOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got, want[i]) {
						t.Errorf("goroutine %d: %s diverged", g, accountingPatterns[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	<-polled

	st := f.PagerStats()
	if st.Reads != single*workers*rounds {
		t.Errorf("reads %d, want %d (%d per pass × %d passes)", st.Reads, single*workers*rounds, single, workers*rounds)
	}
	if res := f.ResidentPages(); st.Misses != res || res > total || res == 0 {
		t.Errorf("misses %d, resident %d, total %d pages", st.Misses, res, total)
	}
}
