package core_test

// Round-trip acceptance tests for the checkpoint subsystem: a machine that
// drains, snapshots to bytes, and restores must continue bit-for-bit
// identically to one that just keeps running — same simcheck commit digest,
// same stats digest — in baseline and runahead-buffer modes alike.

import (
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/workload"
)

// testConfig returns a config for mode m sized so runs stay fast.
func testConfig(m core.Mode) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = m
	return cfg
}

// runToDrainedSnapshot runs a fresh core through warmup uops, drains it, and
// returns the core plus its serialized snapshot.
func runToDrainedSnapshot(t *testing.T, cfg core.Config, p *prog.Program, warmup uint64) (*core.Core, []byte) {
	t.Helper()
	c := core.New(cfg, p)
	c.Run(warmup)
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	data, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return c, data
}

// measure resets stats, attaches a resumed-oracle checker, runs measure uops,
// and returns the commit digest and stats digest.
func measure(t *testing.T, c *core.Core, p *prog.Program, measureUops uint64) (commit, stats uint64) {
	t.Helper()
	c.ResetStats()
	chk := simcheck.AttachResumed(c, p, simcheck.Options{Failf: t.Fatalf})
	target := c.Stats().Committed + measureUops
	c.Run(target)
	chk.Finish()
	return chk.CommitDigest(), simcheck.StatsDigest(c.Stats())
}

func testRoundTrip(t *testing.T, mode core.Mode, bench string) {
	p := workload.MustLoad(bench)
	cfg := testConfig(mode)
	const warmup, measureUops = 60_000, 120_000

	// Reference: drain, snapshot (for the restore path), keep running in place.
	ref, data := runToDrainedSnapshot(t, cfg, p, warmup)

	// Restored: an entirely fresh machine rebuilt from the bytes.
	restored, err := core.RestoreCore(data, cfg, p)
	if err != nil {
		t.Fatalf("RestoreCore: %v", err)
	}
	if got, want := restored.Now(), ref.Now(); got != want {
		t.Fatalf("restored clock %d, reference %d", got, want)
	}
	if got, want := restored.FetchPC(), ref.FetchPC(); got != want {
		t.Fatalf("restored fetch PC %#x, reference %#x", got, want)
	}

	refCommit, refStats := measure(t, ref, p, measureUops)
	resCommit, resStats := measure(t, restored, p, measureUops)

	if refCommit != resCommit {
		t.Errorf("commit digest diverged: continued %#x, restored %#x", refCommit, resCommit)
	}
	if refStats != resStats {
		t.Errorf("stats digest diverged: continued %#x, restored %#x", refStats, resStats)
	}
}

func TestSnapshotRoundTripBaseline(t *testing.T) {
	testRoundTrip(t, core.ModeNone, "mcf")
}

func TestSnapshotRoundTripBuffer(t *testing.T) {
	testRoundTrip(t, core.ModeBuffer, "mcf")
}

func TestSnapshotRoundTripBufferCCLibquantum(t *testing.T) {
	testRoundTrip(t, core.ModeBufferCC, "libquantum")
}

// TestSnapshotRebytesIdentical verifies the canonical-form property: a core
// restored from a snapshot re-serializes to the identical bytes.
func TestSnapshotRebytesIdentical(t *testing.T) {
	p := workload.MustLoad("libquantum")
	cfg := testConfig(core.ModeBuffer)
	_, data := runToDrainedSnapshot(t, cfg, p, 50_000)
	restored, err := core.RestoreCore(data, cfg, p)
	if err != nil {
		t.Fatalf("RestoreCore: %v", err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if string(again) != string(data) {
		t.Fatalf("snapshot of restored core differs from original (%d vs %d bytes)", len(again), len(data))
	}
}

// TestSnapshotRejectsMismatch verifies the guard rails: wrong configuration,
// wrong program, corrupted container.
func TestSnapshotRejectsMismatch(t *testing.T) {
	p := workload.MustLoad("libquantum")
	cfg := testConfig(core.ModeNone)
	_, data := runToDrainedSnapshot(t, cfg, p, 20_000)

	other := cfg
	other.Mode = core.ModeBuffer
	if _, err := core.RestoreCore(data, other, p); err == nil {
		t.Error("restore under a different configuration was accepted")
	}
	if _, err := core.RestoreCore(data, cfg, workload.MustLoad("mcf")); err == nil {
		t.Error("restore against a different program was accepted")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := core.RestoreCore(corrupt, cfg, p); err == nil {
		t.Error("corrupted snapshot was accepted")
	}
}

// TestSnapshotIgnoresWatchdog checks that the watchdog bound is not part of
// the machine's identity: it only decides when a wedged run gives up, so a
// snapshot restores under any bound.
func TestSnapshotIgnoresWatchdog(t *testing.T) {
	p := workload.MustLoad("libquantum")
	cfg := testConfig(core.ModeNone)
	_, data := runToDrainedSnapshot(t, cfg, p, 20_000)
	for _, wd := range []int64{0, 5, 10_000_000} {
		other := cfg
		other.WatchdogCycles = wd
		if _, err := core.RestoreCore(data, other, p); err != nil {
			t.Errorf("restore under WatchdogCycles=%d rejected: %v", wd, err)
		}
	}
}

// TestSnapshotRefusesUndrained verifies that a mid-flight machine cannot be
// serialized (its in-flight state is closures).
func TestSnapshotRefusesUndrained(t *testing.T) {
	p := workload.MustLoad("mcf")
	c := core.New(testConfig(core.ModeNone), p)
	c.Run(5_000)
	if c.Quiesced() {
		t.Skip("machine happened to be quiescent mid-run")
	}
	if _, err := c.Snapshot(); err == nil {
		t.Error("snapshot of a non-quiesced core was accepted")
	}
}

// TestNewFromArch verifies that a functionally fast-forwarded core commits
// the same architectural stream as the interpreter from that point on.
func TestNewFromArch(t *testing.T) {
	p := workload.MustLoad("libquantum")
	in := prog.NewInterp(p)
	in.Run(30_000)
	st := in.ArchState()

	c := core.NewFromArch(testConfig(core.ModeNone), p, st)
	chk := simcheck.AttachResumed(c, p, simcheck.Options{Failf: t.Fatalf})
	c.Run(50_000)
	chk.Finish()
	if chk.Commits() < 50_000 {
		t.Fatalf("only %d commits observed", chk.Commits())
	}
}

// TestArchStateIsolation verifies the checkpoint is decoupled from the
// interpreter that produced it.
func TestArchStateIsolation(t *testing.T) {
	p := workload.MustLoad("libquantum")
	in := prog.NewInterp(p)
	in.Run(10_000)
	st := in.ArchState()
	sum := snapshot.HashString("")
	w := &snapshot.Writer{}
	if err := st.Mem.SnapshotTo(w); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	sum = snapshot.HashBytes(w.Bytes())
	in.Run(10_000) // keep running: must not disturb the checkpoint
	w2 := &snapshot.Writer{}
	if err := st.Mem.SnapshotTo(w2); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	if snapshot.HashBytes(w2.Bytes()) != sum {
		t.Fatal("interpreter progress mutated a captured ArchState")
	}
}
