package index

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"xseq/internal/query"
	"xseq/internal/telemetry"
	"xseq/internal/xmltree"
	"xseq/internal/xmltreetest"
)

// traced answers q on ix under qo with a trace on the context and returns
// the ids and the trace holding the kernel's work counters.
func traced(t *testing.T, ix *Index, q string, qo QueryOptions) ([]int32, *telemetry.Trace) {
	t.Helper()
	tr := telemetry.GetTrace()
	t.Cleanup(func() { telemetry.PutTrace(tr) })
	got, err := ix.QueryWithContext(telemetry.WithTrace(context.Background(), tr), query.MustParse(q), qo)
	if err != nil {
		t.Fatal(err)
	}
	return got, tr
}

func TestQueryStatsCounters(t *testing.T) {
	docs := []*xmltree.Document{
		{ID: 0, Root: xmltree.Figure1()},
		{ID: 1, Root: xmltree.Figure3a()},
	}
	ix := buildCS(t, docs, Options{})
	got, st := traced(t, ix, "//L[text='boston']", QueryOptions{})
	if !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("results = %v", got)
	}
	if st.Instances() == 0 || st.Orders() == 0 {
		t.Fatalf("instances/orders = %d/%d", st.Instances(), st.Orders())
	}
	if st.LinkProbes() == 0 || st.EntriesScanned() == 0 {
		t.Fatalf("probes/scanned = %d/%d", st.LinkProbes(), st.EntriesScanned())
	}
	if len(got) != 2 {
		t.Fatalf("Results = %d", len(got))
	}
}

func TestQueryStatsCoverRejections(t *testing.T) {
	// Figure 4: the constraint must reject the false-alarm candidate, and
	// the rejection is visible in the counters.
	docs := []*xmltree.Document{{ID: 0, Root: xmltree.Figure4D()}}
	ix := buildCS(t, docs, Options{})
	got, st := traced(t, ix, "/P/L[S][B]", QueryOptions{})
	if len(got) != 0 {
		t.Fatalf("results = %v", got)
	}
	if st.CoverChecks() == 0 || st.CoverRejections() == 0 {
		t.Fatalf("cover checks/rejections = %d/%d", st.CoverChecks(), st.CoverRejections())
	}
	// Naive mode performs no cover checks.
	if _, naive := traced(t, ix, "/P/L[S][B]", QueryOptions{Naive: true}); naive.CoverChecks() != 0 {
		t.Fatalf("naive cover checks = %d", naive.CoverChecks())
	}
}

func TestMaxResults(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var docs []*xmltree.Document
	for i := 0; i < 80; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	pat := query.MustParse("//A")
	all, err := ix.Query(pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Skipf("corpus too sparse for the limit test: %d matches", len(all))
	}
	capped, err := ix.QueryWithContext(context.Background(), pat, QueryOptions{MaxResults: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("capped results = %d", len(capped))
	}
	// Every capped id is a true answer.
	set := map[int32]bool{}
	for _, id := range all {
		set[id] = true
	}
	for _, id := range capped {
		if !set[id] {
			t.Fatalf("capped id %d is not an answer", id)
		}
	}
	// A limit above the answer count returns everything.
	loose, err := ix.QueryWithContext(context.Background(), pat, QueryOptions{MaxResults: len(all) + 10})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loose, all) {
		t.Fatal("loose limit changed answers")
	}
}

func TestMaxResultsReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var docs []*xmltree.Document
	for i := 0; i < 300; i++ {
		docs = append(docs, &xmltree.Document{ID: int32(i), Root: xmltreetest.RandomTree(rng, 4, 3)})
	}
	ix := buildCS(t, docs, Options{})
	_, full := traced(t, ix, "//B", QueryOptions{})
	_, capped := traced(t, ix, "//B", QueryOptions{MaxResults: 3})
	if capped.EntriesScanned() >= full.EntriesScanned() {
		t.Fatalf("limit did not reduce scanning: %d vs %d", capped.EntriesScanned(), full.EntriesScanned())
	}
}
