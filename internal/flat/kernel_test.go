package flat

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"xseq/internal/datagen"
	"xseq/internal/engine"
	"xseq/internal/pathenc"
	"xseq/internal/query"
	"xseq/internal/telemetry"
)

// buildAndSave indexes an XMark-like corpus with identical siblings (the
// shape that exercises the sibling-cover test) in memory, saves it, and
// opens the saved file without the full verification: mapped, as a server
// maps it, or read into writable memory.
func buildAndSave(t *testing.T, mapped bool) (built, saved *Index) {
	t.Helper()
	_, docs, err := datagen.XMark(datagen.XMarkOptions{IdenticalSiblings: true, Seed: 3}, 400)
	if err != nil {
		t.Fatal(err)
	}
	built = buildMono(t, docs, false)
	path := filepath.Join(t.TempDir(), "x.flat")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if saved, err = OpenFile(path, Options{NoMmap: !mapped}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { saved.Close() })
	return built, saved
}

var kernelPatterns = []string{
	"/site/people/person/profile[interest][interest]",
	"/site/people/person/profile[interest[text='category3']][interest]",
	"/site/people/person/*[interest[text='category1']][interest[text='category7']]",
	"/site/regions/namerica/item[incategory][incategory[text='category2']]",
	"//open_auctions/open_auction[bidder/time][bidder/increase[text='1.50']]",
	"//person/watches[watch][watch]",
	datagen.XMarkQ1,
	datagen.XMarkQ2,
	"//item/location",
	"/site/*",
}

// traced answers pat on e under ctx and qo with a trace on the context and
// returns the ids, the kernel counters the trace received (instances,
// orders, link probes, entries scanned, cover checks and cover rejections)
// and the error.
func traced(ctx context.Context, e engine.Engine, pat *query.Pattern, qo engine.QueryOptions) ([]int32, [6]int64, error) {
	tr := telemetry.GetTrace()
	defer telemetry.PutTrace(tr)
	ids, err := e.QueryWithContext(telemetry.WithTrace(ctx, tr), pat, qo)
	return ids, [6]int64{tr.Instances(), tr.Orders(), tr.LinkProbes(), tr.EntriesScanned(), tr.CoverChecks(), tr.CoverRejections()}, err
}

// TestLayoutsAgree: one format means one answer and one amount of work. For
// every pattern and mode the index built in memory and the same bytes saved
// and mapped must return the same ids (or the same error) and count
// identical work into the trace.
func TestLayoutsAgree(t *testing.T) {
	built, saved := buildAndSave(t, true)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	modes := []struct {
		name string
		ctx  context.Context
		qo   engine.QueryOptions
		err  error
	}{
		{"plain", context.Background(), engine.QueryOptions{}, nil},
		{"naive", context.Background(), engine.QueryOptions{Naive: true}, nil},
		{"limit", context.Background(), engine.QueryOptions{MaxResults: 2}, nil},
		{"cancelled", cancelled, engine.QueryOptions{}, context.Canceled},
	}
	covered := false
	for _, q := range kernelPatterns {
		pat := query.MustParse(q)
		for _, m := range modes {
			want, bs, berr := traced(m.ctx, built, pat, m.qo)
			got, ss, serr := traced(m.ctx, saved, pat, m.qo)
			if !errors.Is(berr, m.err) || !errors.Is(serr, m.err) {
				t.Fatalf("%s %s: errors built %v, saved %v, want %v", m.name, q, berr, serr, m.err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: saved %v, built %v", m.name, q, got, want)
			}
			if bs != ss {
				t.Errorf("%s %s: counters saved %v, built %v", m.name, q, ss, bs)
			}
			if m.name == "limit" && len(want) > 2 {
				t.Errorf("limit %s: %d ids", q, len(want))
			}
			covered = covered || bs[5] > 0
		}
	}
	if !covered {
		t.Fatal("no pattern exercised a sibling-cover rejection")
	}
}

// TestForgedAncIsCorruption: an anc chain that does not strictly decrease —
// a flipped byte in a snapshot file, or a build's memory gone bad — must end
// the query with *CorruptError, never a hang or a panic.
func TestForgedAncIsCorruption(t *testing.T) {
	built, saved := buildAndSave(t, false)
	for name, l := range map[string]*Index{"built": built, "saved": saved} {
		forged := 0
		for p := 0; p < l.enc.NumPaths(); p++ {
			link := l.Link(pathenc.PathID(p))
			for k := int32(0); k < link.Len(); k++ {
				if link.Anc(k) >= 0 {
					link.setAnc(k, k)
					forged++
				}
			}
		}
		if forged == 0 {
			t.Fatalf("%s: corpus has no cover metadata to forge", name)
		}
		caught := 0
		for _, q := range kernelPatterns {
			_, err := l.QueryWithContext(context.Background(), query.MustParse(q), engine.QueryOptions{})
			var ce *CorruptError
			if errors.As(err, &ce) {
				caught++
			} else if err != nil {
				t.Errorf("%s %s: error %v, want *CorruptError", name, q, err)
			}
		}
		if caught == 0 {
			t.Errorf("%s: no query followed a forged anc pointer", name)
		}
	}
}
