package pager

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoolHitsAndMisses(t *testing.T) {
	p := NewPool(2)
	p.Touch(1) // miss
	p.Touch(1) // hit
	p.Touch(2) // miss
	p.Touch(1) // hit
	s := p.Stats()
	if s.Reads != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DiskAccesses() != 2 {
		t.Fatalf("disk accesses = %d", s.DiskAccesses())
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", s.HitRatio())
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := NewPool(2)
	p.Touch(1)
	p.Touch(2)
	p.Touch(1) // 1 is now most recent
	p.Touch(3) // evicts 2
	if !p.Contains(1) || p.Contains(2) || !p.Contains(3) {
		t.Fatalf("residency after eviction: 1=%v 2=%v 3=%v",
			p.Contains(1), p.Contains(2), p.Contains(3))
	}
	p.Touch(2) // miss again
	if p.Stats().Misses != 4 {
		t.Fatalf("misses = %d want 4", p.Stats().Misses)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPoolResetAndDrop(t *testing.T) {
	p := NewPool(4)
	p.Touch(1)
	p.Touch(2)
	p.ResetStats()
	if p.Stats().Reads != 0 {
		t.Fatal("ResetStats kept counters")
	}
	p.Touch(1) // still resident: hit
	if p.Stats().Hits != 1 {
		t.Fatalf("warm pool should hit; stats=%+v", p.Stats())
	}
	p.Drop()
	p.Touch(1)
	if p.Stats().Misses != 1 {
		t.Fatal("cold pool should miss")
	}
}

func TestPoolDefaults(t *testing.T) {
	if NewPool(0).Capacity() != DefaultPoolPages {
		t.Fatal("default capacity")
	}
	if NewPool(-1).Capacity() != DefaultPoolPages {
		t.Fatal("negative capacity")
	}
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty hit ratio")
	}
}

// Property: the pool never exceeds capacity, hits+misses == reads, and a
// page touched twice in a row is always a hit.
func TestQuickPoolInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, capRaw uint8) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		capacity := int(capRaw%16) + 1
		p := NewPool(capacity)
		for i := 0; i < 500; i++ {
			id := PageID(r.Intn(64))
			p.Touch(id)
			if p.Len() > capacity {
				return false
			}
			before := p.Stats()
			p.Touch(id)
			after := p.Stats()
			if after.Hits != before.Hits+1 {
				return false
			}
		}
		s := p.Stats()
		return s.Hits+s.Misses == s.Reads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scanning n fixed-size items laid out back to back costs exactly
// one miss per page they span on a cold pool with sufficient capacity.
func TestQuickSequentialScanCost(t *testing.T) {
	const itemBytes = 16
	f := func(nRaw uint16) bool {
		n := int(nRaw%5000) + 1
		pages := (n*itemBytes + PageSize - 1) / PageSize
		p := NewPool(pages + 1)
		for slot := 0; slot < n; slot++ {
			p.Touch(PageID(slot * itemBytes / PageSize))
		}
		return int(p.Stats().Misses) == pages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
