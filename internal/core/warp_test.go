package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// runClocked runs one core over p to target commits with an issue recorder
// attached, drains it, and returns the recorder, the core, and the machine
// snapshot — the clock-mode twin of runRecorded.
func runClocked(t *testing.T, cfg Config, p *prog.Program, target uint64) (*issueRecorder, *Core, []byte) {
	t.Helper()
	c := New(cfg, p)
	rec := &issueRecorder{}
	c.SetEventSink(rec, 0)
	c.Run(target)
	c.SetEventSink(nil, 0)
	if err := c.Drain(); err != nil {
		t.Fatalf("%v clock: %v", cfg.ClockMode, err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("%v clock: %v", cfg.ClockMode, err)
	}
	return rec, c, snap
}

// clockLockstepCompare runs the same program under the warped and per-cycle
// clocks and requires the complete issue streams, final cycle counts,
// statistics-bearing snapshots, and architectural state to be identical.
// This is the acceptance invariant for the clock warp: skipped spans must be
// provably cycle-exact no-ops, not approximations.
func clockLockstepCompare(t *testing.T, tag string, cfg Config, p *prog.Program, target uint64) {
	t.Helper()
	warpCfg, tickCfg := cfg, cfg
	warpCfg.ClockMode = ClockWarp
	tickCfg.ClockMode = ClockTick
	wRec, wCore, wSnap := runClocked(t, warpCfg, p, target)
	tRec, tCore, tSnap := runClocked(t, tickCfg, p, target)

	if len(wRec.issues) != len(tRec.issues) {
		t.Fatalf("%s: warp clock issued %d uops, tick issued %d", tag, len(wRec.issues), len(tRec.issues))
	}
	for i := range wRec.issues {
		if wRec.issues[i] != tRec.issues[i] {
			t.Fatalf("%s: issue %d diverges: warp picked seq %d at cycle %d, tick picked seq %d at cycle %d",
				tag, i, wRec.issues[i].seq, wRec.issues[i].cycle, tRec.issues[i].seq, tRec.issues[i].cycle)
		}
	}
	if wCore.Now() != tCore.Now() {
		t.Fatalf("%s: warp clock finished at cycle %d, tick at %d", tag, wCore.Now(), tCore.Now())
	}
	if wCore.ArchRegs() != tCore.ArchRegs() {
		t.Fatalf("%s: architectural register state diverged", tag)
	}
	if wCore.Stats().CPIStackSum() != tCore.Stats().CPIStackSum() {
		t.Fatalf("%s: CPI stack totals diverged: warp %d, tick %d",
			tag, wCore.Stats().CPIStackSum(), tCore.Stats().CPIStackSum())
	}
	// Snapshot bytes carry every statistic, the memory image, cache and
	// predictor contents; the configuration fingerprint excludes ClockMode,
	// so byte equality is the strongest equivalence statement available.
	if !bytes.Equal(wSnap, tSnap) {
		t.Fatalf("%s: machine snapshots differ between clock modes (%d vs %d bytes)", tag, len(wSnap), len(tSnap))
	}
}

// TestClockWarpLockstep is the warp-vs-tick property test over randomized
// programs and all five runahead flavors, mirroring TestSchedulerLockstep.
// Half the seeds also flip the issue scheduler so the warp is exercised over
// both select implementations.
func TestClockWarpLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	modes := []Mode{ModeNone, ModeTraditional, ModeBuffer, ModeBufferCC, ModeHybrid}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		cfg := testConfig(modes[seed%int64(len(modes))])
		cfg.Enhancements = seed%2 == 0
		if seed%2 == 1 {
			cfg.Scheduler = SchedScan
		}
		clockLockstepCompare(t, p.Name, cfg, p, 10_000)
	}
}

// TestClockWarpLockstepMemoryBound repeats the lockstep check on the
// memory-bound gather workload — the regime the warp exists for, where the
// ROB sits blocked on DRAM for hundreds of cycles at a time — and on the mcf
// and lbm kernels under the baseline and both runahead-buffer flavors. It
// also requires the warp to have actually skipped a substantial share of the
// simulated cycles (otherwise the equivalence holds vacuously).
func TestClockWarpLockstepMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	p := gatherLoop(2)
	for _, mode := range []Mode{ModeNone, ModeBufferCC, ModeHybrid} {
		clockLockstepCompare(t, "gather/"+mode.String(), testConfig(mode), p, 20_000)
	}
	for _, bench := range []string{"mcf", "lbm"} {
		wp := workload.MustLoad(bench)
		for _, mode := range []Mode{ModeNone, ModeBuffer, ModeBufferCC} {
			clockLockstepCompare(t, bench+"/"+mode.String(), testConfig(mode), wp, 60_000)
		}
	}

	c := New(testConfig(ModeNone), p)
	c.Run(20_000)
	warps, skipped := c.WarpStats()
	if warps == 0 || skipped == 0 {
		t.Fatalf("baseline gather run never warped (warps=%d skipped=%d)", warps, skipped)
	}
	if frac := float64(skipped) / float64(c.Now()); frac < 0.5 {
		t.Fatalf("warp skipped only %.1f%% of %d cycles on a DRAM-bound workload", frac*100, c.Now())
	}
}

// TestAllocGateMemoryBound is the allocation gate for the load path and
// runahead entry: once warm, a memory-bound core must allocate next to
// nothing per committed uop. The cells cover MSHR-full load retries (mcf and
// milc under the runahead buffer, where the replayed chain saturates the 32
// L1D MSHRs), chain generation and the chain cache (omnetpp under RB+CC), and
// traditional runahead's poison path (mcf). Each warms for 100k uops, then
// counts heap allocations over the next 50k committed uops. The bound is one
// malloc per 1,000 uops; what remains is map growth and first-touch pages of
// the simulated memory image.
//
// Mallocs over the 50k-uop window, go1.24 linux/amd64:
//
//	cell           before  after
//	mcf RB          24285      8
//	milc RB         59509     35
//	omnetpp RB+CC   33129      8
//	mcf RA           7772      4
//
// "before" is the closure-per-load hierarchy interface this gate replaced.
func TestAllocGateMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 600k simulated uops")
	}
	const warm, window = 100_000, 50_000
	for _, cell := range []struct {
		bench string
		mode  Mode
	}{
		{"mcf", ModeBuffer},
		{"milc", ModeBuffer},
		{"omnetpp", ModeBufferCC},
		{"mcf", ModeTraditional},
	} {
		c := New(testConfig(cell.mode), workload.MustLoad(cell.bench))
		c.Run(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Run(warm + window)
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("%s/%v: %d mallocs over %d uops", cell.bench, cell.mode, mallocs, window)
		if mallocs > window/1000 {
			t.Errorf("%s/%v: %d mallocs over %d committed uops, bound %d (1 per 1,000 uops)",
				cell.bench, cell.mode, mallocs, window, window/1000)
		}
	}
}

// TestClockWarpObservability pins the warp's interaction with the per-cycle
// observability hooks: tracer occupancy samples and timeline intervals fire
// at exact cycle boundaries, so the warp must split spans there rather than
// jump over them. Timelines under both clocks must match sample for sample.
func TestClockWarpObservability(t *testing.T) {
	p := gatherLoop(0)
	run := func(mode ClockMode) *Core {
		cfg := testConfig(ModeBufferCC)
		cfg.ClockMode = mode
		c := New(cfg, p)
		c.SetTimeline(stats.NewTimeline(512, 4096))
		c.Run(5_000)
		return c
	}
	w, tk := run(ClockWarp), run(ClockTick)
	if w.Now() != tk.Now() {
		t.Fatalf("final cycles diverge with a timeline attached: warp %d, tick %d", w.Now(), tk.Now())
	}
	ws, ts := w.Timeline().Samples(), tk.Timeline().Samples()
	if len(ws) != len(ts) {
		t.Fatalf("warp produced %d timeline samples, tick %d", len(ws), len(ts))
	}
	for i := range ws {
		if ws[i] != ts[i] {
			t.Fatalf("timeline sample %d diverges:\nwarp: %+v\ntick: %+v", i, ws[i], ts[i])
		}
	}
	if warps, _ := w.WarpStats(); warps == 0 {
		t.Fatal("warp never fired with a timeline attached; the clamp test is vacuous")
	}
}
