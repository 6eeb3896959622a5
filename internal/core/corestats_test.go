package core

import (
	"testing"
)

// TestCommittedCounterSingleSource is the regression test for the old
// Committed/CommittedInstrs duplication: there is one committed counter, the
// commit stage increments it, Run's target honors it, and the exported
// counter set (what report code consumes) carries the same value.
func TestCommittedCounterSingleSource(t *testing.T) {
	const target = 1_000
	c := New(testConfig(ModeNone), simpleLoop())
	st := c.Run(target)
	if st.Committed < target {
		t.Fatalf("Run(%d) stopped at Committed=%d", target, st.Committed)
	}
	set := st.Counters()
	if got := set.Get("Committed"); got != st.Committed {
		t.Fatalf("exported Committed=%d, struct Committed=%d", got, st.Committed)
	}
	// IPC must be derived from the same counter.
	if want := float64(st.Committed) / float64(st.Cycles); st.IPC() != want {
		t.Fatalf("IPC()=%v, want Committed/Cycles=%v", st.IPC(), want)
	}
}

// TestCountersExportStable checks the reflection-based export covers the
// headline counters and renders deterministically.
func TestCountersExportStable(t *testing.T) {
	c := New(testConfig(ModeBufferCC), gatherLoop(4))
	st := c.Run(3_000)
	set := st.Counters()
	names := map[string]bool{}
	for _, n := range set.Names() {
		names[n] = true
	}
	for _, name := range []string{"Cycles", "Committed", "Fetched", "RunaheadCycles",
		"cpi.base", "cpi.dram", "cpi.runahead-overhead", "ChainLengths.count"} {
		if !names[name] {
			t.Errorf("exported counter %q is missing", name)
		}
	}
	for _, name := range []string{"Cycles", "Committed", "Fetched", "RunaheadCycles"} {
		if set.Get(name) == 0 {
			t.Errorf("exported counter %q is zero", name)
		}
	}
	if set.String() != st.Counters().String() {
		t.Fatal("Counters export must be deterministic")
	}
}
