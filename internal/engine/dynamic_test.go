package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"xseq/internal/engine"
	"xseq/internal/faultio"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/xmltree"
)

func TestDynamicBasics(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDocuments() != 1 || d.NumNodes() == 0 {
		t.Fatalf("initial state: docs=%d nodes=%d", d.NumDocuments(), d.NumNodes())
	}
	// Insert and query before compaction.
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	if d.PendingDocuments() != 1 {
		t.Fatalf("pending = %d", d.PendingDocuments())
	}
	got, err := d.Query(query.MustParse("//L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, []int32{0, 1}) {
		t.Fatalf("query across main+delta = %v", got)
	}
	// Compact and requery.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.PendingDocuments() != 0 {
		t.Fatalf("pending after compact = %d", d.PendingDocuments())
	}
	got2, err := d.Query(query.MustParse("//L[text='boston']"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got2, []int32{0, 1}) {
		t.Fatalf("query after compact = %v", got2)
	}
}

func TestDynamicErrors(t *testing.T) {
	if _, err := engine.NewDynamic(nil, nil, 0); err == nil {
		t.Fatal("nil builder should fail")
	}
	d, err := engine.NewDynamic(csBuilder(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Main() != nil {
		t.Fatal("empty dynamic should have no main")
	}
	if err := d.Insert(nil); err == nil {
		t.Fatal("nil insert should fail")
	}
	if err := d.Insert(&xmltree.Document{ID: 5, Root: xmltree.Figure1()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(&xmltree.Document{ID: 5, Root: xmltree.Figure2a()}); err == nil {
		t.Fatal("duplicate id should fail")
	}
	if _, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 1, Root: xmltree.Figure1()}, {ID: 1, Root: xmltree.Figure1()},
	}, 0); err == nil {
		t.Fatal("duplicate initial ids should fail")
	}
}

// TestDynamicResumeRecover: ResumeDynamic serves a frozen engine without a
// Builder call; Recover indexes a tail below the threshold as one pending
// segment and, at the threshold, folds main and the tail into a fresh main
// engine, leaving existing segments pending. A rejected or failed Recover
// changes nothing.
func TestDynamicResumeRecover(t *testing.T) {
	docs := testCorpus(t, 9)
	var builds []int
	failing := false
	build := func(ctx context.Context, ds []*xmltree.Document) (engine.Engine, error) {
		if failing {
			return nil, faultio.ErrInjected
		}
		builds = append(builds, len(ds))
		return csBuilder()(ctx, ds)
	}
	d, err := engine.ResumeDynamic(build, mustBuild(t, docs[:4]), docs[:4], 4)
	if err != nil {
		t.Fatal(err)
	}
	pats := []*query.Pattern{query.MustParse("//A"), query.MustParse("/R/B"), query.MustParse("//C[text='A']")}
	if len(builds) != 0 || d.NumDocuments() != 4 || d.PendingDocuments() != 0 {
		t.Fatalf("resume: builds %v, docs %d, pending %d", builds, d.NumDocuments(), d.PendingDocuments())
	}
	sameAnswers(t, d, docs[:4], pats)

	if err := d.Recover(context.Background(), docs[4:6]); err != nil {
		t.Fatal(err)
	}
	if len(builds) != 1 || builds[0] != 2 || d.PendingDocuments() != 2 {
		t.Fatalf("recover below threshold: builds %v, pending %d", builds, d.PendingDocuments())
	}
	sameAnswers(t, d, docs[:6], pats)

	gen := d.Generation()
	if err := d.Recover(context.Background(), docs[3:7]); err == nil {
		t.Fatal("recover of an id the corpus holds succeeded")
	}
	failing = true
	if err := d.Recover(context.Background(), docs[6:8]); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("recover with a failing Builder = %v", err)
	}
	failing = false
	if d.Generation() != gen || d.NumDocuments() != 6 || d.Contains(docs[6].ID) {
		t.Fatal("a refused or failed recover changed the state")
	}

	// Pending 2 + tail 2 reaches the threshold of 4: main and the tail
	// rebuild into one main engine; the earlier segment stays pending.
	if err := d.Recover(context.Background(), docs[6:8]); err != nil {
		t.Fatal(err)
	}
	if len(builds) != 2 || builds[1] != 6 || d.PendingDocuments() != 2 || d.NumDocuments() != 8 {
		t.Fatalf("recover at threshold: builds %v, pending %d, docs %d", builds, d.PendingDocuments(), d.NumDocuments())
	}
	sameAnswers(t, d, docs[:8], pats)
	if err := d.Insert(docs[8]); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, d, docs, pats)
}

func TestDynamicAutoCompact(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 7; i++ {
		if err := d.Insert(&xmltree.Document{ID: int32(i), Root: randomTree(rng, 4, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	// Threshold 3: compactions at inserts 3 and 6; one document pending.
	if d.PendingDocuments() != 1 {
		t.Fatalf("pending = %d want 1", d.PendingDocuments())
	}
	if d.Main() == nil || d.NumDocuments() != 7 {
		t.Fatalf("main missing or wrong count %d", d.NumDocuments())
	}
}

// TestDynamicSaveUnsupported: a dynamic engine cannot snapshot its
// transient delta state; the capability gap is the ErrUnsupported sentinel.
func TestDynamicSaveUnsupported(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(nil); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("Save = %v, want ErrUnsupported", err)
	}
	if err := engine.SaveFile(t.TempDir()+"/x", d.Save); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("SaveFile = %v, want ErrUnsupported", err)
	}
}

// TestDynamicGeneration: the generation bumps before every insert and every
// non-empty compaction, and never otherwise — the contract generation-keyed
// caches invalidate by.
func TestDynamicGeneration(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	g0 := d.Generation()
	if _, err := d.Query(query.MustParse("//L")); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != g0 {
		t.Fatal("query must not bump the generation")
	}
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	g1 := d.Generation()
	if g1 <= g0 {
		t.Fatalf("insert did not bump: %d -> %d", g0, g1)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	g2 := d.Generation()
	if g2 <= g1 {
		t.Fatalf("compaction did not bump: %d -> %d", g1, g2)
	}
	// An empty-buffer compaction changes nothing and must not bump.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != g2 {
		t.Fatal("no-op compaction bumped the generation")
	}
}

// TestDynamicQueryOptions: the option variants work across the main+delta
// split — stats merge, limits count across both sides.
func TestDynamicQueryOptions(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
	}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(&xmltree.Document{ID: 1, Root: xmltree.Figure3a()}); err != nil {
		t.Fatal(err)
	}
	pat := query.MustParse("//L[text='boston']")
	var st engine.QueryStats
	ids, err := d.QueryWithContext(context.Background(), pat, engine.QueryOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(ids, []int32{0, 1}) {
		t.Fatalf("explain query = %v", ids)
	}
	if st.Results != 2 || st.Instances < 2 || st.LinkProbes == 0 {
		t.Fatalf("stats did not merge across main+delta: %+v", st)
	}
	limited, err := d.QueryWithContext(context.Background(), pat, engine.QueryOptions{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Fatalf("limited query = %v, want 1 id", limited)
	}
}

// TestQuickDynamicEquivalence runs seeded schedules that interleave
// inserts, every query variant, compactions, checkpoints, forced rebuilds,
// resets and a window of failing Builder calls. After every step each
// answer equals a fresh build over the documents acknowledged so far (and
// the ground-truth matcher), a MaxResults answer is that many of them, and
// Documents() lists the acknowledged documents in insertion order.
func TestQuickDynamicEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		from := 1 + r.Intn(40)
		d, err := engine.NewDynamic(faultio.FlakyBuilderN(csBuilder(), from, from+r.Intn(4), nil), nil, 2+r.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		var acked []*xmltree.Document
		var seq uint64
		for step := 0; step < 48; step++ {
			var ce *engine.CompactionError
			var err error
			switch op := r.Intn(16); {
			case op < 9:
				doc := &xmltree.Document{ID: int32(step), Root: randomTree(r, 4, 3)}
				if err = d.Insert(doc); err == nil || errors.As(err, &ce) {
					acked = append(acked, doc)
					seq++
				}
			case op < 11:
				err = d.Compact()
			case op < 13:
				var got uint64
				var main engine.Engine
				if got, main, err = d.CompactForCheckpoint(context.Background()); err == nil {
					if got != seq || (main == nil) != (len(acked) == 0) {
						t.Fatalf("seed %d step %d: checkpoint covers seq %d (main %v), want %d over %d docs", seed, step, got, main, seq, len(acked))
					}
				}
			case op < 15:
				err = d.RebuildContext(context.Background())
			default:
				acked = acked[:r.Intn(len(acked)+1)]
				seq = uint64(r.Intn(100))
				var main engine.Engine
				if len(acked) > 0 {
					main = mustBuild(t, acked)
				}
				err = d.ResetTo(main, acked, seq)
			}
			if err != nil && !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkDynamic(t, r, d, acked, seq)
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
	}
}

// checkDynamic compares d with a fresh build over acked on a few patterns
// and every query variant.
func checkDynamic(t *testing.T, r *rand.Rand, d *engine.Dynamic, acked []*xmltree.Document, seq uint64) {
	t.Helper()
	docs := d.Documents()
	if len(docs) != len(acked) || d.NumDocuments() != len(acked) || d.AppliedSeq() != seq {
		t.Errorf("%d docs (%d counted) at seq %d, want %d at seq %d", len(docs), d.NumDocuments(), d.AppliedSeq(), len(acked), seq)
		return
	}
	for i := range docs {
		if docs[i] != acked[i] {
			t.Errorf("Documents()[%d] = id %d, want id %d", i, docs[i].ID, acked[i].ID)
			return
		}
	}
	pats := []*query.Pattern{query.MustParse("//A"), query.MustParse("/R/*/B")}
	if len(acked) > 0 {
		pats = append(pats, query.FromTree(randomSubPattern(r, acked[r.Intn(len(acked))].Root)))
	}
	var fresh engine.Engine
	if len(acked) > 0 {
		fresh = mustBuild(t, acked)
	}
	ctx := context.Background()
	enc := pathenc.NewEncoder(1 << 20)
	for _, pat := range pats {
		var want, wantVerified []int32
		if fresh != nil {
			var err error
			if want, err = fresh.QueryWithContext(ctx, pat, engine.QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			if wantVerified, err = fresh.QueryWithContext(ctx, pat, engine.QueryOptions{Verify: true}); err != nil {
				t.Fatal(err)
			}
		}
		if truth := groundTruth(acked, pat, enc); !sameIDs(want, truth) {
			t.Errorf("%s: fresh build %v, ground truth %v", pat, want, truth)
		}
		var st engine.QueryStats
		got, err := d.QueryWithContext(ctx, pat, engine.QueryOptions{Stats: &st})
		if err != nil || !sameIDs(got, want) || st.Results != len(want) {
			t.Errorf("%s: got %v (results %d, err %v), want %v", pat, got, st.Results, err, want)
		}
		if got, err := d.QueryWithContext(ctx, pat, engine.QueryOptions{Verify: true}); err != nil || !sameIDs(got, wantVerified) {
			t.Errorf("%s verified: got %v (err %v), want %v", pat, got, err, wantVerified)
		}
		max := 1 + r.Intn(3)
		got, err = d.QueryWithContext(ctx, pat, engine.QueryOptions{MaxResults: max})
		if err != nil || len(got) != min(max, len(want)) || !ascendingSubset(got, want) {
			t.Errorf("%s max %d: got %v (err %v), want that many of %v", pat, max, got, err, want)
		}
	}
}

// ascendingSubset reports whether sub is strictly ascending and every id in
// it is in the ascending list all.
func ascendingSubset(sub, all []int32) bool {
	j := 0
	for i, id := range sub {
		if i > 0 && id <= sub[i-1] {
			return false
		}
		for j < len(all) && all[j] < id {
			j++
		}
		if j == len(all) || all[j] != id {
			return false
		}
	}
	return true
}

// TestDynamicBuildsNeverBlockReaders holds a segment merge, then an
// automatic compaction, inside the Builder. While either is held the
// serving lock is free, queries answer over every applied insert, and
// another insert is applied and visible; after release the answers equal
// a fresh build.
func TestDynamicBuildsNeverBlockReaders(t *testing.T) {
	docs := testCorpus(t, 6)
	pats := []*query.Pattern{query.MustParse("//A"), query.MustParse("/R/B"), query.MustParse("//C[text='A']")}
	for _, tc := range []struct {
		name      string
		threshold int
		before    int // documents inserted before the insert whose build is held
		held      int // document count of the held build
	}{
		{"merge", 1 << 30, 1, 2},
		{"auto-compaction", 4, 3, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bb := newBlockingBuilder(func(ds []*xmltree.Document) bool { return len(ds) == tc.held })
			d, err := engine.NewDynamic(bb.build, nil, tc.threshold)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range docs[:tc.before] {
				if err := d.Insert(doc); err != nil {
					t.Fatal(err)
				}
			}
			release := sync.OnceFunc(func() { close(bb.release) })
			defer release()
			held := make(chan error, 1)
			go func() { held <- d.Insert(docs[tc.before]) }()
			<-bb.entered

			if d.ServingLockHeld() {
				t.Fatal("the held build runs under the serving lock")
			}
			sameAnswers(t, d, docs[:tc.before+1], pats)
			if err := d.Insert(docs[tc.before+1]); err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, d, docs[:tc.before+2], pats)
			if d.Compactions() != 0 {
				t.Fatalf("compactions = %d while the build is held", d.Compactions())
			}

			release()
			if err := <-held; err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, d, docs[:tc.before+2], pats)
			if tc.name == "auto-compaction" && (d.Compactions() != 1 || d.PendingDocuments() != 1) {
				t.Fatalf("after release: compactions=%d pending=%d, want 1 and 1", d.Compactions(), d.PendingDocuments())
			}
		})
	}
}

// TestDynamicReindexingBounded counts the documents handed to the Builder
// over 4 × 64 inserts at threshold 64: outside the four compactions the
// total stays within (log₂ 64 + 2) per insert, segment sizes strictly
// decrease with at most log₂ 64 segments, and no Builder call of any kind
// runs under the serving lock.
func TestDynamicReindexingBounded(t *testing.T) {
	const threshold, inserts = 64, 4 * 64
	var (
		d     *engine.Dynamic
		sizes []int
	)
	inner := csBuilder()
	build := func(ctx context.Context, docs []*xmltree.Document) (engine.Engine, error) {
		if d != nil && d.ServingLockHeld() {
			t.Error("Builder called under the serving lock")
		}
		sizes = append(sizes, len(docs))
		return inner(ctx, docs)
	}
	d, err := engine.NewDynamic(build, nil, threshold)
	if err != nil {
		t.Fatal(err)
	}
	docs := largeCorpus(t, inserts+1)
	indexed := 0
	for _, doc := range docs[:inserts] {
		calls, compactions := len(sizes), d.Compactions()
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
		added := sizes[calls:]
		if d.Compactions() > compactions {
			added = added[:len(added)-1] // the compaction is the insert's last build
		}
		for _, n := range added {
			indexed += n
		}
		segs := d.SegmentSizes()
		for i := 1; i < len(segs); i++ {
			if segs[i] >= segs[i-1] {
				t.Fatalf("segment sizes %v do not strictly decrease", segs)
			}
		}
		if len(segs) > 6 {
			t.Fatalf("%d segments (%v), want at most log₂ %d", len(segs), segs, threshold)
		}
	}
	if d.Compactions() != 4 {
		t.Fatalf("compactions = %d, want 4", d.Compactions())
	}
	if bound := (6 + 2) * inserts; indexed > bound {
		t.Fatalf("non-compaction builds indexed %d documents, bound %d", indexed, bound)
	}
	t.Logf("%d inserts: %d documents indexed outside compactions (%.2f per insert)", inserts, indexed, float64(indexed)/inserts)

	// The explicit build paths run off the lock too.
	if err := d.Insert(docs[inserts]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.CompactForCheckpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.RebuildContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, d, docs, []*query.Pattern{query.MustParse("//A/B")})
}

// expiringCtx is a context whose deadline the test passes by hand, so a
// "build slower than the insert deadline" needs no timers.
type expiringCtx struct {
	context.Context
	done chan struct{}
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestDynamicCompactionOutlivesInsertDeadline: every compaction runs past
// the deadline of the insert that triggered it, and the Builder honours
// its context. The builds an insert leaves belong to the index, so the
// deadline abandons none of them: every compaction lands, none is counted
// as failed, and the segment count stays logarithmic across many such
// inserts. A compaction that keeps failing is counted and visible, backs
// off one threshold per attempt, and merges still bound the segments.
func TestDynamicCompactionOutlivesInsertDeadline(t *testing.T) {
	const threshold, rounds = 8, 5
	docs := largeCorpus(t, 2*rounds*threshold)
	var (
		cur     *expiringCtx // the running insert's context
		failing bool
	)
	inner := csBuilder()
	build := func(ctx context.Context, in []*xmltree.Document) (engine.Engine, error) {
		// A compaction is the only build holding the first document once
		// there are threshold of them.
		if len(in) >= threshold && in[0] == docs[0] {
			if cur != nil {
				close(cur.done) // the build outlasts the insert's deadline
				cur = nil
			}
			if failing {
				return nil, errors.New("injected compaction failure")
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return inner(ctx, in)
	}
	d, err := engine.NewDynamic(build, nil, threshold)
	if err != nil {
		t.Fatal(err)
	}
	checkShape := func() {
		t.Helper()
		segs := d.SegmentSizes()
		for i := 1; i < len(segs); i++ {
			if segs[i] >= segs[i-1] {
				t.Fatalf("segment sizes %v do not strictly decrease", segs)
			}
		}
	}

	for i, doc := range docs[:rounds*threshold] {
		ctx := newExpiringCtx()
		cur = ctx
		if err := d.InsertContext(ctx, doc); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		checkShape()
		if n := len(d.SegmentSizes()); n > 3 {
			t.Fatalf("insert %d: %d segments, want at most log₂ %d", i, n, threshold)
		}
	}
	if d.Compactions() != rounds || d.FailedCompactions() != 0 || d.LastCompactionError() != nil || d.PendingDocuments() != 0 {
		t.Fatalf("after %d deadline-outliving compactions: %d done, %d failed (%v), %d pending",
			rounds, d.Compactions(), d.FailedCompactions(), d.LastCompactionError(), d.PendingDocuments())
	}

	failing = true
	var cerrs int
	for _, doc := range docs[rounds*threshold:] {
		err := d.Insert(doc)
		var ce *engine.CompactionError
		if errors.As(err, &ce) {
			cerrs++
		} else if err != nil {
			t.Fatal(err)
		}
		checkShape() // strictly decreasing sizes: at most log₂(pending)+1 segments
	}
	// Pending crossed 8, 16, 24, 32 and 40: one attempt each.
	if cerrs != rounds || d.FailedCompactions() != rounds || d.LastCompactionError() == nil {
		t.Fatalf("failing compactions: %d reported, %d counted, last %v; want %d", cerrs, d.FailedCompactions(), d.LastCompactionError(), rounds)
	}
	failing = false
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, d, docs, []*query.Pattern{query.MustParse("//A/B"), query.MustParse("/R")})
}

// TestDynamicConcurrentInsertQuery races several inserters (so merges,
// skipped merges and auto-compactions publish while segments are being
// appended), queries, and explicit compactions, checkpoints and rebuilds.
// Every query sees every insert acknowledged before it started; at the end
// Documents() keeps each inserter's order and the answers equal a fresh
// build. Run under -race.
func TestDynamicConcurrentInsertQuery(t *testing.T) {
	const inserters, each = 4, 40
	d, err := engine.NewDynamic(csBuilder(), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	all := largeCorpus(t, inserters*each)
	var acked [inserters]atomic.Int64
	var writers, others sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < inserters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for _, doc := range all[w*each : (w+1)*each] {
				if err := d.Insert(doc); err != nil {
					t.Error(err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}
	matchAll := query.MustParse("/R")
	for q := 0; q < 2; q++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var before [inserters]int64
				for w := range before {
					before[w] = acked[w].Load()
				}
				ids, err := d.Query(matchAll)
				if err != nil {
					t.Error(err)
					return
				}
				got := make(map[int32]bool, len(ids))
				for i, id := range ids {
					if i > 0 && id <= ids[i-1] {
						t.Errorf("results unsorted or duplicated: %v", ids)
						return
					}
					got[id] = true
				}
				for w, n := range before {
					for _, doc := range all[w*each : w*each+int(n)] {
						if !got[doc.ID] {
							t.Errorf("acknowledged document %d missing from a later query", doc.ID)
							return
						}
					}
				}
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch k % 3 {
			case 0:
				err = d.Compact()
			case 1:
				_, _, err = d.CompactForCheckpoint(context.Background())
			default:
				err = d.RebuildContext(context.Background())
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	others.Wait()
	if t.Failed() {
		return
	}

	if d.NumDocuments() != len(all) {
		t.Fatalf("docs = %d, want %d", d.NumDocuments(), len(all))
	}
	pos := map[int32]int{}
	for i, doc := range d.Documents() {
		pos[doc.ID] = i
	}
	for w := 0; w < inserters; w++ {
		for i := w*each + 1; i < (w+1)*each; i++ {
			if pos[all[i].ID] <= pos[all[i-1].ID] {
				t.Fatalf("Documents() lists id %d before id %d, inserted after it", all[i].ID, all[i-1].ID)
			}
		}
	}
	sameAnswers(t, d, all, []*query.Pattern{matchAll, query.MustParse("//A/B"), query.MustParse("/R/C")})
}

func TestDynamicContextCancelled(t *testing.T) {
	d, err := engine.NewDynamic(csBuilder(), nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range largeCorpus(t, 32) {
		if err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The match loops over the pending segment honour the query's context.
	if _, err := d.QueryContext(ctx, query.MustParse("//A")); !errors.Is(err, context.Canceled) {
		t.Fatalf("dynamic query on cancelled ctx = %v", err)
	}
	if err := d.CompactContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("compact on cancelled ctx = %v", err)
	}
	// The failed compaction must not have disturbed serving: a live query
	// still answers over everything.
	got, err := d.Query(query.MustParse("//A"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results after cancelled compaction")
	}
}
