package flat

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fillResult opens a result set over ids [0, maxID] and feeds it n distinct
// ids in random order, each offered twice, capped at limit (0: none).
func fillResult(rng *rand.Rand, maxID int32, n, limit int) *resultSet {
	scr := getScratch(maxID)
	r := &resultSet{scr: scr, ids: scr.ids[:0], maxID: maxID, limit: limit, ctx: context.Background()}
	ids := rng.Perm(int(maxID) + 1)[:n]
	found := make([]int32, 0, 2*n)
	for _, id := range ids {
		found = append(found, int32(id), int32(ids[rng.Intn(n)]))
	}
	r.addAll(found)
	return r
}

// TestTakeDensities runs take on answers on both sides of denseEmitRatio,
// with and without MaxResults.
func TestTakeDensities(t *testing.T) {
	const maxID = 9999
	switchAt := (maxID + 1) / denseEmitRatio
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, switchAt - 1, switchAt, switchAt + 1, 1000, 5000, maxID + 1} {
		for _, limit := range []int{0, 3, switchAt + 2} {
			name := fmt.Sprintf("n=%d/limit=%d", n, limit)
			r := fillResult(rng, maxID, n, limit)
			// The ids a capped search keeps are the first distinct ones found.
			want := slices.Clone(r.ids)
			slices.Sort(want)
			if limit > 0 && len(want) > limit {
				t.Fatalf("%s: result set kept %d ids past its cap", name, len(want))
			}
			got := r.take()
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("%s: empty answer is %v, want nil", name, got)
				}
				putScratch(r.scr)
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: take gave %d ids, want %d ascending distinct", name, len(got), len(want))
			}
			if dense, sorted := r.takeDense(), r.takeSorted(); !slices.Equal(dense, sorted) {
				t.Fatalf("%s: stamp scan and sort disagree", name)
			}
			// A fresh slice: overwriting it leaves every pooled id buffer intact.
			for i := range got {
				got[i] = -1
			}
			for _, buf := range [][]int32{r.ids, r.scr.ids[:cap(r.scr.ids)], r.scr.docBuf} {
				if slices.Contains(buf, -1) {
					t.Fatalf("%s: the answer aliases a pooled buffer", name)
				}
			}
			putScratch(r.scr)
		}
	}
}

// BenchmarkTake measures both emission paths over 10,000 ids at answer
// densities around the switch point; it is how denseEmitRatio was chosen.
// Each iteration also copies the found ids back in, on both paths.
func BenchmarkTake(b *testing.B) {
	const maxID = 9999
	for _, every := range []int{2, 8, 16, 24, 32, 48, 64, 128} {
		rng := rand.New(rand.NewSource(1))
		r := fillResult(rng, maxID, (maxID+1)/every, 0)
		found := slices.Clone(r.ids)
		for _, path := range []struct {
			name string
			take func() []int32
		}{{"scan", r.takeDense}, {"sort", r.takeSorted}} {
			b.Run(fmt.Sprintf("1in%d/%s", every, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(r.ids, found)
					path.take()
				}
			})
		}
		putScratch(r.scr)
	}
}
