package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64}) // 4 sets
}

func TestGeometry(t *testing.T) {
	c := tiny()
	if c.Config().Sets() != 4 {
		t.Fatalf("sets = %d, want 4", c.Config().Sets())
	}
	if c.LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x12345))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 1, LineBytes: 64},
		{Name: "npo2sets", SizeBytes: 3 * 64, Ways: 1, LineBytes: 64},
		{Name: "npo2line", SizeBytes: 512, Ways: 2, LineBytes: 48},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %q should panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitMiss(t *testing.T) {
	c := tiny()
	if hit, _ := c.Lookup(0x1000); hit {
		t.Fatal("empty cache must miss")
	}
	c.Insert(0x1000, false)
	if hit, _ := c.Lookup(0x1000); !hit {
		t.Fatal("inserted line must hit")
	}
	if hit, _ := c.Lookup(0x1040); hit {
		t.Fatal("different line must miss")
	}
	if c.Hits != 1 || c.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2 ways; lines mapping to set 0 are multiples of 4*64=256
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Lookup(a) // a is now MRU
	v := c.Insert(d, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("victim = %+v, want line b (%#x)", v, b)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestInsertExistingIsRefresh(t *testing.T) {
	c := tiny()
	c.Insert(0x0000, false)
	v := c.Insert(0x0000, false)
	if v.Valid {
		t.Fatal("reinserting a resident line must not evict")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := tiny()
	c.Insert(0x0000, false)
	if !c.MarkDirty(0x0000) {
		t.Fatal("MarkDirty on resident line must succeed")
	}
	if c.MarkDirty(0x9999) {
		t.Fatal("MarkDirty on absent line must fail")
	}
	c.Insert(0x0100, false)
	v := c.Insert(0x0200, false) // evicts 0x0000 (LRU)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("dirty victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(0x0000, false)
	c.MarkDirty(0x0000)
	present, dirty := c.Invalidate(0x0000)
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if c.Probe(0x0000) {
		t.Fatal("line still present after invalidate")
	}
	if present, _ := c.Invalidate(0x0000); present {
		t.Fatal("double invalidate must report absent")
	}
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := tiny()
	c.Insert(0x0000, true)
	if !c.PrefetchResident(0x0000) {
		t.Fatal("prefetch bit must be set after prefetch fill")
	}
	if c.Probe(0x0000); c.PrefetchResident(0x0000) == false {
		t.Fatal("Probe must not clear the prefetch bit")
	}
	hit, wasPrefetch := c.Lookup(0x0000)
	if !hit || !wasPrefetch {
		t.Fatal("first demand use must report wasPrefetch")
	}
	if c.PrefetchResident(0x0000) {
		t.Fatal("demand use must clear the prefetch bit")
	}
	if _, wp := c.Lookup(0x0000); wp {
		t.Fatal("second use must not report wasPrefetch")
	}
}

// Property: the cache never holds more than Ways lines of one set, and a
// line just inserted is always resident.
func TestPropertyWaysRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := tiny()
		resident := make(map[uint64]bool)
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(32)) * 64
			v := c.Insert(addr, false)
			resident[c.LineAddr(addr)] = true
			if v.Valid {
				delete(resident, v.Addr)
			}
			if !c.Probe(addr) {
				return false
			}
		}
		// Shadow model and cache must agree on residency.
		for a := range resident {
			if !c.Probe(a) {
				return false
			}
		}
		count := 0
		for a := uint64(0); a < 32*64; a += 64 {
			if c.Probe(a) {
				count++
			}
		}
		return count == len(resident) && count <= 8 // 4 sets * 2 ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRBasics(t *testing.T) {
	f := NewMSHRFile(2)
	m := f.Allocate(0x1000, false)
	if m == nil {
		t.Fatal("allocation in empty file must succeed")
	}
	if _, ok := f.Lookup(0x1000); !ok {
		t.Fatal("lookup of allocated entry must succeed")
	}
	f.Allocate(0x2000, false)
	if f.Outstanding() != 2 {
		t.Fatal("file must hold cap entries")
	}
	if f.Allocate(0x3000, false) != nil {
		t.Fatal("allocation beyond capacity must fail")
	}
	if f.Full != 1 {
		t.Fatal("rejection not counted")
	}
	done := f.Complete(0x1000)
	if done.LineAddr != 0x1000 || f.Outstanding() != 1 {
		t.Fatal("completion bookkeeping wrong")
	}
}

func TestMSHRPeakOccupancy(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(0x1000, false)
	f.Allocate(0x2000, false)
	f.Complete(0x1000)
	f.Allocate(0x3000, false)
	if f.Peak != 2 {
		t.Fatalf("Peak = %d, want 2 (never more than 2 in flight)", f.Peak)
	}
	f.Allocate(0x4000, false)
	f.Allocate(0x5000, false)
	if f.Peak != 4 {
		t.Fatalf("Peak = %d, want 4", f.Peak)
	}
	// Draining does not lower the recorded peak.
	for _, a := range []uint64{0x2000, 0x3000, 0x4000, 0x5000} {
		f.Complete(a)
	}
	if f.Peak != 4 || f.Outstanding() != 0 {
		t.Fatalf("Peak/Outstanding = %d/%d after drain, want 4/0", f.Peak, f.Outstanding())
	}
}

func TestMSHRMergeSemantics(t *testing.T) {
	f := NewMSHRFile(4)
	m := f.Allocate(0x1000, true)
	if !m.Prefetch {
		t.Fatal("prefetch allocation must be marked")
	}
	called := 0
	f.Merge(m, true, Waiter{Done: func(Outcome) { called++ }})
	if m.Prefetch {
		t.Fatal("demand merge must convert a prefetch MSHR")
	}
	if !m.DemandMerged {
		t.Fatal("demand merge must record lateness")
	}
	f.Merge(m, false, Waiter{})
	if len(m.Waiters) != 1 {
		t.Fatalf("waiters = %d, want 1", len(m.Waiters))
	}
	for _, w := range m.Waiters {
		w.Done(Outcome{})
	}
	if called != 1 {
		t.Fatal("waiter not invoked")
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(0x1000, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate must panic")
		}
	}()
	f.Allocate(0x1000, false)
}

func TestMSHRCompleteUnknownPanics(t *testing.T) {
	f := NewMSHRFile(4)
	defer func() {
		if recover() == nil {
			t.Fatal("completing unknown entry must panic")
		}
	}()
	f.Complete(0x1234)
}
