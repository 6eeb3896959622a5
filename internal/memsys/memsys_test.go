package memsys

import (
	"testing"
)

// drive ticks the hierarchy from *now until pred() or the cycle budget runs
// out, returning the final cycle.
func drive(t *testing.T, h *Hierarchy, now *int64, budget int64, pred func() bool) {
	t.Helper()
	for lim := *now + budget; *now < lim; *now++ {
		h.Tick(*now)
		if pred() {
			return
		}
	}
	t.Fatalf("condition not reached within %d cycles", budget)
}

// testLoad is the closure pair one test load reports to; funcSink routes
// each tag back to its own pair, so tests keep writing per-load callbacks.
type testLoad struct {
	miss func(int64)
	done func(Outcome)
}

type funcSink struct{}

func (funcSink) LoadMiss(t LoadTag, now int64) {
	if l := t.Ref.(*testLoad); l.miss != nil {
		l.miss(now)
	}
}

func (funcSink) LoadDone(t LoadTag, o Outcome) { t.Ref.(*testLoad).done(o) }

// load issues requestor 0's load with closure callbacks (onMiss may be nil).
func load(h *Hierarchy, now int64, addr uint64, noWait bool, onMiss func(int64), done func(Outcome)) bool {
	h.SetLoadSink(0, funcSink{})
	return h.Load(now, addr, noWait, LoadTag{Ref: &testLoad{miss: onMiss, done: done}, Addr: addr})
}

func TestLoadL1Hit(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var first, second *Outcome
	load(h, now, 0x1000, false, nil, func(o Outcome) { first = &o })
	drive(t, h, &now, 10000, func() bool { return first != nil })
	if first.Level != LevelMem {
		t.Fatalf("cold load level = %v, want Mem", first.Level)
	}
	start := now
	load(h, now, 0x1000, false, nil, func(o Outcome) { second = &o })
	drive(t, h, &now, 100, func() bool { return second != nil })
	if second.Level != LevelL1 {
		t.Fatalf("warm load level = %v, want L1", second.Level)
	}
	if d := second.When - start; d != int64(h.cfg.L1Latency) {
		t.Fatalf("L1 hit latency = %d, want %d", d, h.cfg.L1Latency)
	}
}

func TestLoadLLCHit(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var warm *Outcome
	done := false
	load(h, now, 0x2000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	// Evict from L1 by filling its set: L1D is 32KB/8-way/64B = 64 sets, so
	// lines 8KB apart collide. 8 more fills push 0x2000 out.
	for i := 1; i <= 8; i++ {
		fillDone := false
		load(h, now, 0x2000+uint64(i*8192), false, nil, func(Outcome) { fillDone = true })
		drive(t, h, &now, 10000, func() bool { return fillDone })
	}
	start := now
	load(h, now, 0x2000, false, nil, func(o Outcome) { warm = &o })
	drive(t, h, &now, 1000, func() bool { return warm != nil })
	if warm.Level != LevelLLC {
		t.Fatalf("level = %v, want LLC", warm.Level)
	}
	lat := warm.When - start
	want := int64(h.cfg.L1Latency + h.cfg.LLCLatency)
	if lat < want || lat > want+4 {
		t.Fatalf("LLC hit latency = %d, want about %d", lat, want)
	}
}

func TestColdMissLatencyIsDRAMBound(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	start := now
	load(h, now, 0x3000, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	lat := o.When - start
	// L1 + LLC tag checks plus a cold DRAM access (~104) and change.
	if lat < 100 {
		t.Fatalf("cold miss latency %d implausibly low", lat)
	}
	if h.DRAMReadsDemand != 1 {
		t.Fatalf("demand DRAM reads = %d, want 1", h.DRAMReadsDemand)
	}
}

func TestMSHRMergeNoDuplicateDRAM(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	count := 0
	load(h, now, 0x4000, false, nil, func(Outcome) { count++ })
	load(h, now, 0x4008, false, nil, func(Outcome) { count++ }) // same line
	drive(t, h, &now, 10000, func() bool { return count == 2 })
	if h.DRAMReadsDemand != 1 {
		t.Fatalf("merged accesses issued %d DRAM reads, want 1", h.DRAMReadsDemand)
	}
}

func TestNoWaitLoadNotifiesEarlyAndStillFills(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	start := now
	load(h, now, 0x5000, true, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if o.Level != LevelMem {
		t.Fatalf("level = %v, want Mem", o.Level)
	}
	early := o.When - start
	if early > int64(h.cfg.L1Latency+h.cfg.LLCLatency+4) {
		t.Fatalf("no-wait notification at +%d, should be at tag-check time", early)
	}
	// The background fill must complete: wait, then the line hits in L1.
	drive(t, h, &now, 10000, func() bool { return h.Drained() })
	var warm *Outcome
	load(h, now, 0x5000, false, nil, func(x Outcome) { warm = &x })
	drive(t, h, &now, 100, func() bool { return warm != nil })
	if warm.Level != LevelL1 {
		t.Fatalf("after background fill, level = %v, want L1", warm.Level)
	}
}

func TestNoWaitLoadLLCHitDeliversData(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0x6000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	for i := 1; i <= 8; i++ { // push out of L1 as above
		fd := false
		load(h, now, 0x6000+uint64(i*8192), false, nil, func(Outcome) { fd = true })
		drive(t, h, &now, 10000, func() bool { return fd })
	}
	var o *Outcome
	load(h, now, 0x6000, true, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 1000, func() bool { return o != nil })
	if o.Level != LevelLLC {
		t.Fatalf("no-wait LLC hit level = %v, want LLC", o.Level)
	}
}

func TestStoreWriteAllocateAndWriteback(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	h.Store(now, 0x7000, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	// Evict the dirty line from L1: conflicting fills force a writeback to
	// the LLC (MarkDirty there, no DRAM write yet).
	for i := 1; i <= 8; i++ {
		fd := false
		load(h, now, 0x7000+uint64(i*8192), false, nil, func(Outcome) { fd = true })
		drive(t, h, &now, 10000, func() bool { return fd })
	}
	if h.DRAMWrites != 0 {
		t.Fatalf("dirty L1 eviction should write back to LLC, not DRAM (writes=%d)", h.DRAMWrites)
	}
	if h.Stores != 1 {
		t.Fatalf("stores = %d", h.Stores)
	}
}

func TestFetchPath(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	h.Fetch(now, 0x400000, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if o.Level != LevelMem {
		t.Fatalf("cold fetch level = %v", o.Level)
	}
	var warm *Outcome
	h.Fetch(now, 0x400008, func(x Outcome) { warm = &x }) // same line
	drive(t, h, &now, 100, func() bool { return warm != nil })
	if warm.Level != LevelL1 {
		t.Fatalf("warm fetch level = %v, want L1", warm.Level)
	}
}

func TestInclusionInvalidatesL1(t *testing.T) {
	cfg := DefaultConfig()
	// Shrink the LLC to 4KB so it is smaller than L1D reach for the test:
	// filling one LLC set evicts lines that must vanish from L1 too.
	cfg.LLC.SizeBytes = 4096
	cfg.LLC.Ways = 2
	h := New(cfg)
	var now int64
	load := func(addr uint64) {
		done := false
		load(h, now, addr, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 20000, func() bool { return done })
	}
	// LLC: 4KB/2way/64B = 32 sets; same-set stride = 2KB.
	load(0x0000)
	load(0x0800)
	load(0x1000) // evicts 0x0000 from LLC, and by inclusion from L1D
	if h.L1D().Probe(0x0000) {
		t.Fatal("inclusion violated: line evicted from LLC still in L1D")
	}
	// Re-access must go to DRAM again.
	before := h.DRAMReadsDemand
	load(0x0000)
	if h.DRAMReadsDemand != before+1 {
		t.Fatal("re-access after inclusion eviction should miss to DRAM")
	}
}

func TestPrefetcherGeneratesRequestsAndHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.Prefetch.FDP = false
	h := New(cfg)
	var now int64
	// Two loads 9 lines apart in the same direction do not form a stream;
	// walk sequentially instead. Use addresses far from other tests' habits.
	base := uint64(1 << 24)
	for i := uint64(0); i < 32; i++ {
		done := false
		load(h, now, base+i*64, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 20000, func() bool { return done })
	}
	if h.DRAMReadsPrefetch == 0 {
		t.Fatal("stream prefetcher never issued a request")
	}
	// With the stream established and fills done, later lines hit in LLC.
	drive(t, h, &now, 50000, func() bool { return h.Drained() })
	var o *Outcome
	load(h, now, base+33*64, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 1000, func() bool { return o != nil })
	if o.Level == LevelMem {
		t.Fatal("prefetched line should not miss to DRAM")
	}
	if h.Prefetcher().Counters().Issued == 0 {
		t.Fatal("prefetcher stats empty")
	}
}

func TestL1DMSHRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1DMSHRs = 2
	h := New(cfg)
	var now int64
	ok1 := load(h, now, 0x10000, false, nil, func(Outcome) {})
	ok2 := load(h, now, 0x20000, false, nil, func(Outcome) {})
	ok3 := load(h, now, 0x30000, false, nil, func(Outcome) {})
	if !ok1 || !ok2 {
		t.Fatal("loads within MSHR capacity must be accepted")
	}
	if ok3 {
		t.Fatal("load beyond MSHR capacity must be rejected")
	}
	// Same-line access merges and is accepted even when full.
	if !load(h, now, 0x10008, false, nil, func(Outcome) {}) {
		t.Fatal("mergeable load must be accepted despite full MSHRs")
	}
}

// TestL1DMSHRRefusalCounted fills the 32 L1D MSHRs and has one more load
// refused: the refusal is counted once in the file's Full statistic and in
// its never-reset PoolFull twin.
func TestL1DMSHRRefusalCounted(t *testing.T) {
	h := New(DefaultConfig())
	_, l1d, _ := h.MSHRFiles()
	var now int64
	for i := 0; i < h.Config().L1DMSHRs; i++ {
		if !load(h, now, uint64(0x100000+i*4096), false, nil, func(Outcome) {}) {
			t.Fatalf("load %d refused with MSHRs free", i)
		}
	}
	if l1d.Full != 0 {
		t.Fatalf("Full = %d before any refusal", l1d.Full)
	}
	if load(h, now, 0x900000, false, nil, func(Outcome) {}) {
		t.Fatal("load beyond MSHR capacity must be refused")
	}
	if l1d.Full != 1 || l1d.PoolFull != 1 {
		t.Fatalf("Full, PoolFull = %d, %d after one refusal, want 1, 1", l1d.Full, l1d.PoolFull)
	}
}

// sinkNote is one notification a recordingSink received.
type sinkNote struct {
	done bool // LoadDone, else LoadMiss
	tag  LoadTag
	when int64
	lvl  Level // LoadDone only
}

type recordingSink struct{ notes []sinkNote }

func (s *recordingSink) LoadMiss(t LoadTag, now int64) {
	s.notes = append(s.notes, sinkNote{tag: t, when: now})
}

func (s *recordingSink) LoadDone(t LoadTag, o Outcome) {
	s.notes = append(s.notes, sinkNote{done: true, tag: t, when: o.When, lvl: o.Level})
}

// TestLoadSinkNotifications drives the typed load interface through each
// path that notifies a sink and checks the exact notification sequence:
// every tag comes back by value, and each load hears at most one LoadMiss
// and exactly one LoadDone.
func TestLoadSinkNotifications(t *testing.T) {
	const addr = 0x40000
	type issue struct {
		seq    uint64
		noWait bool
	}
	// want lists (seq, done, level) in delivery order.
	type want struct {
		seq  uint64
		done bool
		lvl  Level
	}
	for _, tc := range []struct {
		name string
		warm bool // the line is in the L1D before the first load
		// afterMiss issues the second load once the first is known to be
		// DRAM-bound, so it merges into an MSHR marked FillFromMem.
		afterMiss bool
		loads     []issue
		want      []want
	}{
		{name: "L1 hit", warm: true, loads: []issue{{seq: 1}},
			want: []want{{1, true, LevelL1}}},
		{name: "demand fill", loads: []issue{{seq: 1}},
			want: []want{{1, false, 0}, {1, true, LevelMem}}},
		{name: "no-wait allocation notifies once", loads: []issue{{seq: 1, noWait: true}},
			want: []want{{1, false, 0}, {1, true, LevelMem}}},
		{name: "merge into a DRAM-bound MSHR", afterMiss: true, loads: []issue{{seq: 1}, {seq: 2}},
			want: []want{{1, false, 0}, {2, false, 0}, {1, true, LevelMem}, {2, true, LevelMem}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New(DefaultConfig())
			var now int64
			if tc.warm {
				warmed := false
				load(h, now, addr, false, nil, func(Outcome) { warmed = true })
				drive(t, h, &now, 2000, func() bool { return warmed })
				now++
			}
			sink := &recordingSink{}
			h.SetLoadSink(0, sink)
			tags := map[uint64]LoadTag{}
			issueAt := map[uint64]int64{}
			for i, l := range tc.loads {
				if i > 0 && tc.afterMiss {
					drive(t, h, &now, 2000, func() bool { return len(sink.notes) > 0 })
					now++
				}
				tag := LoadTag{Ref: &tc.loads[i], Gen: 7, Seq: l.seq, Addr: addr + 8*l.seq}
				tags[l.seq], issueAt[l.seq] = tag, now
				if !h.Load(now, tag.Addr, l.noWait, tag) {
					t.Fatalf("load %d refused", l.seq)
				}
			}
			drive(t, h, &now, 5000, h.Drained)
			if len(sink.notes) != len(tc.want) {
				t.Fatalf("got %d notifications %+v, want %d", len(sink.notes), sink.notes, len(tc.want))
			}
			missAt := map[uint64]int64{}
			for i, w := range tc.want {
				n := sink.notes[i]
				if n.tag.Seq != w.seq || n.done != w.done || (w.done && n.lvl != w.lvl) {
					t.Fatalf("notification %d = %+v, want %+v", i, n, w)
				}
				if n.tag != tags[w.seq] {
					t.Fatalf("notification %d carries tag %+v, want %+v", i, n.tag, tags[w.seq])
				}
				if !w.done {
					missAt[w.seq] = n.when
				}
			}
			for _, n := range sink.notes {
				if !n.done {
					continue
				}
				switch l := *n.tag.Ref.(*issue); {
				case tc.warm:
					if n.when != issueAt[l.seq]+int64(h.Config().L1Latency) {
						t.Fatalf("L1 hit completed at %d, issued at %d", n.when, issueAt[l.seq])
					}
				case l.noWait:
					if n.when != missAt[l.seq] {
						t.Fatalf("no-wait load completed at %d, not at miss discovery %d", n.when, missAt[l.seq])
					}
				default:
					if n.when <= missAt[l.seq] {
						t.Fatalf("demand load completed at %d, not after its miss at %d", n.when, missAt[l.seq])
					}
				}
			}
		})
	}
}

func TestManyOutstandingMissesOverlap(t *testing.T) {
	// MLP: 16 independent misses should complete in far less than 16x the
	// single-miss latency.
	single := New(DefaultConfig())
	var now int64
	done := false
	start := now
	load(single, now, 1<<20, false, nil, func(Outcome) { done = true })
	drive(t, single, &now, 10000, func() bool { return done })
	oneLat := now - start

	h := New(DefaultConfig())
	var now2 int64
	count := 0
	for i := 0; i < 16; i++ {
		// Spread across banks/channels.
		if !load(h, now2, uint64(1<<20)+uint64(i)*64*2, false, nil, func(Outcome) { count++ }) {
			t.Fatal("load rejected")
		}
	}
	drive(t, h, &now2, 100000, func() bool { return count == 16 })
	if now2 >= oneLat*8 {
		t.Fatalf("16 overlapped misses took %d cycles vs single %d — no MLP", now2, oneLat)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (int64, uint64) {
		h := New(DefaultConfig())
		var now int64
		count := 0
		for i := 0; i < 32; i++ {
			load(h, now, uint64(i)*4096, false, nil, func(Outcome) { count++ })
		}
		for now = 0; count < 32; now++ {
			h.Tick(now)
		}
		return now, h.DRAMReadsDemand
	}
	c1, r1 := runOnce()
	c2, r2 := runOnce()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelLLC.String() != "LLC" || LevelMem.String() != "Mem" {
		t.Fatal("Level strings wrong")
	}
}

func TestResetStatsPreservesCacheContents(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0x8000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	h.ResetStats()
	if h.Loads != 0 || h.DRAMReadsDemand != 0 || h.L1D().Hits != 0 {
		t.Fatal("counters not zeroed")
	}
	// The line is still resident: the next access hits L1.
	var o *Outcome
	load(h, now, 0x8000, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 100, func() bool { return o != nil })
	if o.Level != LevelL1 {
		t.Fatalf("post-reset access level = %v, want L1 (state lost)", o.Level)
	}
}

func TestOnMissFiresForDRAMBoundLoads(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	missAt := int64(-1)
	var o *Outcome
	load(h, now, 0x9000, false, func(cy int64) { missAt = cy }, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if missAt < 0 {
		t.Fatal("onMiss never fired for a DRAM-bound load")
	}
	if missAt >= o.When {
		t.Fatalf("onMiss at %d should precede data at %d", missAt, o.When)
	}
	// A second load to an in-flight DRAM-bound line gets onMiss promptly too.
	h2 := New(DefaultConfig())
	var now2 int64
	var miss2 int64 = -1
	got := 0
	load(h2, now2, 0xa000, false, nil, func(Outcome) { got++ })
	for now2 = 0; now2 < 40; now2++ {
		h2.Tick(now2)
	}
	load(h2, now2, 0xa008, false, func(cy int64) { miss2 = cy }, func(Outcome) { got++ })
	drive(t, h2, &now2, 10000, func() bool { return got == 2 })
	if miss2 < 0 {
		t.Fatal("merged load never learned it was DRAM-bound")
	}
}

func TestOnMissNotCalledForHits(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0xb000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	fired := false
	done = false
	load(h, now, 0xb000, false, func(int64) { fired = true }, func(Outcome) { done = true })
	drive(t, h, &now, 100, func() bool { return done })
	if fired {
		t.Fatal("onMiss fired for an L1 hit")
	}
}

// TestInclusionFoldsL1Dirtiness: when the LLC evicts a line whose L1 copy is
// dirty, the writeback to DRAM must still happen (the dirtiness folds into
// the victim).
func TestInclusionFoldsL1Dirtiness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLC.SizeBytes = 4096
	cfg.LLC.Ways = 2
	h := New(cfg)
	var now int64
	op := func(f func(cb func(Outcome)) bool) {
		done := false
		if !f(func(Outcome) { done = true }) {
			t.Fatal("access rejected")
		}
		drive(t, h, &now, 30000, func() bool { return done })
	}
	// Dirty the line in L1 only (write-allocate; LLC copy stays clean).
	op(func(cb func(Outcome)) bool { return h.Store(now, 0x0000, cb) })
	if h.DRAMWrites != 0 {
		t.Fatal("no writeback should have happened yet")
	}
	// Force the LLC set (stride 2KB) to evict line 0 while its dirty copy
	// still sits in L1.
	op(func(cb func(Outcome)) bool { return load(h, now, 0x0800, false, nil, cb) })
	op(func(cb func(Outcome)) bool { return load(h, now, 0x1000, false, nil, cb) })
	drive(t, h, &now, 30000, func() bool { return h.Drained() })
	if h.L1D().Probe(0x0000) {
		t.Fatal("inclusion violation")
	}
	if h.DRAMWrites == 0 {
		t.Fatal("dirty L1 data lost on inclusion eviction (no DRAM writeback)")
	}
}

func TestUnknownPrefetchKindPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.PrefetchKind = "oracle"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown prefetch kind must panic")
		}
	}()
	New(cfg)
}

func TestDeltaPrefetchKindWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.PrefetchKind = "delta"
	h := New(cfg)
	var now int64
	// A constant 5-line stride the delta engine should cover.
	for i := uint64(0); i < 24; i++ {
		done := false
		load(h, now, 1<<22+i*5*64, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 30000, func() bool { return done })
	}
	if h.DRAMReadsPrefetch == 0 {
		t.Fatal("delta engine never prefetched a constant stride")
	}
}
