package core

import (
	"bytes"
	"math/rand"
	"testing"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

// issueRecorder is a trace.Sink that keeps the exact issue stream — (cycle,
// seq) pairs in emission order — plus a seq→PC map built from dispatch
// events. The lockstep test compares streams across schedulers; the PRF-read
// test maps issued uops back to their static source counts.
type issueRecorder struct {
	issues []issueRec
	pcOf   map[uint64]uint64
}

type issueRec struct {
	cycle int64
	seq   uint64
}

func (r *issueRecorder) Emit(ev *trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		if r.pcOf != nil {
			r.pcOf[ev.Seq] = ev.PC
		}
	case trace.Issue:
		r.issues = append(r.issues, issueRec{cycle: ev.Cycle, seq: ev.Seq})
	}
}

func (r *issueRecorder) Close() error { return nil }

// runRecorded runs one core over p to target commits with an issue recorder
// attached, drains it, and returns the recorder and the machine snapshot.
func runRecorded(t *testing.T, cfg Config, p *prog.Program, target uint64) (*issueRecorder, *Core, []byte) {
	t.Helper()
	c := New(cfg, p)
	rec := &issueRecorder{pcOf: make(map[uint64]uint64)}
	c.SetEventSink(rec, 0)
	c.Run(target)
	c.SetEventSink(nil, 0)
	if err := c.Drain(); err != nil {
		t.Fatalf("%v scheduler: %v", cfg.Scheduler, err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("%v scheduler: %v", cfg.Scheduler, err)
	}
	return rec, c, snap
}

// lockstepCompare runs the same program under both schedulers and requires
// the complete issue streams — which uop issued on which cycle, in selection
// order — to be identical, along with final cycle counts, statistics-bearing
// snapshots, and architectural state. This is the acceptance invariant for
// the event-driven scheduler: not "same final answer", but the same selection
// sequence cycle by cycle.
func lockstepCompare(t *testing.T, tag string, cfg Config, p *prog.Program, target uint64) {
	t.Helper()
	evCfg, scanCfg := cfg, cfg
	evCfg.Scheduler = SchedEvent
	scanCfg.Scheduler = SchedScan
	evRec, evCore, evSnap := runRecorded(t, evCfg, p, target)
	scanRec, scanCore, scanSnap := runRecorded(t, scanCfg, p, target)

	if len(evRec.issues) != len(scanRec.issues) {
		t.Fatalf("%s: event scheduler issued %d uops, scan issued %d", tag, len(evRec.issues), len(scanRec.issues))
	}
	for i := range evRec.issues {
		if evRec.issues[i] != scanRec.issues[i] {
			t.Fatalf("%s: issue %d diverges: event picked seq %d at cycle %d, scan picked seq %d at cycle %d",
				tag, i, evRec.issues[i].seq, evRec.issues[i].cycle, scanRec.issues[i].seq, scanRec.issues[i].cycle)
		}
	}
	if evCore.Now() != scanCore.Now() {
		t.Fatalf("%s: event scheduler finished at cycle %d, scan at %d", tag, evCore.Now(), scanCore.Now())
	}
	if evCore.ArchRegs() != scanCore.ArchRegs() {
		t.Fatalf("%s: architectural register state diverged", tag)
	}
	// Snapshot bytes carry every statistic, the memory image, cache and
	// predictor contents; the configuration fingerprint excludes Scheduler,
	// so byte equality is the strongest equivalence statement available.
	if !bytes.Equal(evSnap, scanSnap) {
		t.Fatalf("%s: machine snapshots differ between schedulers (%d vs %d bytes)", tag, len(evSnap), len(scanSnap))
	}
}

// TestSchedulerLockstep is the scan-vs-event property test over randomized
// programs and all runahead flavors the paper evaluates (baseline, runahead
// buffer, runahead buffer + chain cache), plus the hybrid and traditional
// modes that route through the same issue logic.
func TestSchedulerLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	modes := []Mode{ModeNone, ModeTraditional, ModeBuffer, ModeBufferCC, ModeHybrid}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		cfg := testConfig(modes[seed%int64(len(modes))])
		cfg.Enhancements = seed%2 == 0
		lockstepCompare(t, p.Name, cfg, p, 10_000)
	}
}

// TestSchedulerLockstepMemoryBound repeats the lockstep check on the
// memory-bound gather workload, where runahead intervals (and therefore
// flush/re-enroll churn in the scheduler) dominate, and on the mcf pointer
// chase under the baseline and both runahead-buffer flavors.
func TestSchedulerLockstepMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	p := gatherLoop(2)
	for _, mode := range []Mode{ModeNone, ModeBufferCC, ModeHybrid} {
		lockstepCompare(t, "gather/"+mode.String(), testConfig(mode), p, 20_000)
	}
	mcf := workload.MustLoad("mcf")
	for _, mode := range []Mode{ModeNone, ModeBuffer, ModeBufferCC} {
		lockstepCompare(t, "mcf/"+mode.String(), testConfig(mode), mcf, 60_000)
	}
}

// srcCount returns how many register sources a static uop names — the number
// of physical-register-file reads its issue costs.
func srcCount(u *isa.Uop) int {
	n := 0
	if u.Src1 != isa.RegNone {
		n++
	}
	if u.Src2 != isa.RegNone {
		n++
	}
	return n
}

// TestPRFReadsCountsActualSources pins the PRF-read accounting: the energy
// model charges one read per register source actually named, summed over
// every issued uop (wrong-path and runahead included — those reads happen in
// hardware too). The seed accounting charged a flat two reads per issue,
// over-counting immediates, moves, and single-source ops.
func TestPRFReadsCountsActualSources(t *testing.T) {
	p := storeLoadLoop() // known mix: 0-source MOVIs, 1-source ALU/loads, 2-source ops
	c := New(testConfig(ModeNone), p)
	rec := &issueRecorder{pcOf: make(map[uint64]uint64)}
	c.SetEventSink(rec, 0)
	st := c.Run(20_000)
	c.SetEventSink(nil, 0)

	expected := uint64(0)
	for _, is := range rec.issues {
		pc, ok := rec.pcOf[is.seq]
		if !ok {
			t.Fatalf("issued seq %d never dispatched", is.seq)
		}
		idx := int((pc - isa.TextBase) / isa.UopBytes)
		if idx < 0 || idx >= p.NumUops() {
			t.Fatalf("issued seq %d has PC %#x outside the program", is.seq, pc)
		}
		expected += uint64(srcCount(&p.Uops[idx]))
	}
	if st.Issued != uint64(len(rec.issues)) {
		t.Fatalf("Issued = %d but %d issue events traced", st.Issued, len(rec.issues))
	}
	if st.PRFReads != expected {
		t.Fatalf("PRFReads = %d, want %d (one per named source of each issued uop)", st.PRFReads, expected)
	}
	// The mix must actually exercise the fix: with 0- and 1-source uops in
	// flight, the correct count is strictly below the old flat 2×issued.
	if st.PRFReads >= 2*st.Issued {
		t.Fatalf("PRFReads = %d not below 2×Issued = %d; instruction mix does not cover the regression", st.PRFReads, 2*st.Issued)
	}
}

// TestPredictedEAConservative pins the disambiguation fix: a load whose
// address sources are poisoned has an unknowable address, so predictedEA must
// refuse (not fabricate an EA from the stale register value) and both
// schedulers' loadCanIssue must conservatively hold the load.
func TestPredictedEAConservative(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	u := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.RegNone}
	d := &DynInst{Seq: 7, U: u, PDst: 100, PSrc1: 64, PSrc2: noPhys, POld: noPhys, Renamed: true}

	c.prf.ready[64] = true
	c.prf.val[64] = 0x2000
	if ea, ok := d.predictedEA(c); !ok || ea != 0x2000 {
		t.Fatalf("clean sources: predictedEA = (%#x, %v), want (0x2000, true)", ea, ok)
	}

	c.prf.poison[64] = true
	if _, ok := d.predictedEA(c); ok {
		t.Fatal("poisoned base register: predictedEA claimed the address is knowable")
	}
	if c.loadCanIssueScan(0, d) {
		t.Fatal("scan scheduler issued a load with an unknowable address")
	}
	if c.loadCanIssueEvent(d) {
		t.Fatal("event scheduler issued a load with an unknowable address")
	}

	// A scaled load also depends on its index register.
	c.prf.poison[64] = false
	us := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.Reg(2), Scaled: true}
	ds := &DynInst{Seq: 8, U: us, PDst: 101, PSrc1: 64, PSrc2: 65, POld: noPhys, Renamed: true}
	c.prf.poison[65] = true
	if _, ok := ds.predictedEA(c); ok {
		t.Fatal("poisoned index register: predictedEA claimed the address is knowable")
	}
}

// TestWatchdogRunaheadEntryProgress pins the watchdog fix: committing to a
// runahead entry is forward progress (the preceding stall was a legal
// DRAM-bound wait), so entry must advance lastProgress before any
// pseudo-retirement happens.
func TestWatchdogRunaheadEntryProgress(t *testing.T) {
	c := New(testConfig(ModeTraditional), simpleLoop())
	c.now = 1000
	c.lastProgress = 3
	u := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.RegNone}
	d := &DynInst{Seq: 1, PC: isa.TextBase, U: u, PDst: 100, PSrc1: 64, PSrc2: noPhys, POld: noPhys, DRAMBound: true}
	c.tryEnterRunahead(d)
	if !c.ra.active {
		t.Fatal("traditional-mode entry did not activate runahead")
	}
	if c.lastProgress != c.now {
		t.Fatalf("runahead entry left lastProgress at %d (now %d)", c.lastProgress, c.now)
	}
}

// TestWatchdogSurvivesRunaheadEntry drives the memory-bound workload with the
// watchdog clock pinned to its limit on every pre-entry cycle. Entry must
// reset the clock; if it did not, the first entry would trip the watchdog
// immediately (the panic the seed code produced under a small WatchdogCycles
// with long legal stalls).
func TestWatchdogSurvivesRunaheadEntry(t *testing.T) {
	for _, mode := range []Mode{ModeTraditional, ModeBufferCC} {
		cfg := testConfig(mode)
		cfg.WatchdogCycles = 10_000
		c := New(cfg, gatherLoop(0))
		entered := false
		c.SetCycleHook(func() {
			if c.ra.active {
				entered = true
				return
			}
			// Keep the machine exactly at the watchdog limit until entry: any
			// post-entry cycle without progress accounting would panic.
			c.lastProgress = c.now - cfg.WatchdogCycles
		})
		c.Run(3_000)
		if !entered {
			t.Fatalf("%v: gather workload never entered runahead", mode)
		}
	}
}
