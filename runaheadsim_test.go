package runaheadsim

import (
	"strings"
	"testing"
)

func TestRunBaseline(t *testing.T) {
	res, err := Run(Config{Benchmark: "mcf", MeasureUops: 10_000, WarmupUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Committed < 10_000 || res.Cycles <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.IPCDeltaPct != 0 {
		t.Fatal("baseline delta vs itself must be zero")
	}
	if res.Mode != ModeBaseline {
		t.Fatalf("mode = %q", res.Mode)
	}
}

func TestRunHybridReportsDeltas(t *testing.T) {
	res, err := Run(Config{Benchmark: "mcf", Mode: ModeHybrid, MeasureUops: 20_000, WarmupUops: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunaheadIntervals == 0 {
		t.Fatal("hybrid on mcf must runahead")
	}
	if res.IPCDeltaPct <= 0 {
		t.Fatalf("hybrid on mcf should gain IPC, got %+.1f%%", res.IPCDeltaPct)
	}
	if res.Stats == nil {
		t.Fatal("raw stats missing")
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if _, err := Run(Config{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := Run(Config{Benchmark: "mcf", Mode: "warp-drive"}); err == nil {
		t.Fatal("unknown mode must error")
	}
}

// nopMonitor is a Monitor that ignores every callback.
type nopMonitor struct{ id int }

func (*nopMonitor) RunStart(string, string)                   {}
func (*nopMonitor) RunDone(string, string)                    {}
func (*nopMonitor) Phase(string, string, int, string, uint64) {}
func (*nopMonitor) Progress(string, string, int, uint64)      {}
func (*nopMonitor) Done(string, string, int)                  {}

// mapMonitor is a Monitor of a non-comparable type.
type mapMonitor map[string]int

func (mapMonitor) RunStart(string, string)                   {}
func (mapMonitor) RunDone(string, string)                    {}
func (mapMonitor) Phase(string, string, int, string, uint64) {}
func (mapMonitor) Progress(string, string, int, uint64)      {}
func (mapMonitor) Done(string, string, int)                  {}

// TestRunAllRejectsMixedRunnerSettings checks that RunAll refuses configs
// that disagree on a runner setting instead of silently running them all
// under config 0's, and that it does so before simulating anything.
func TestRunAllRejectsMixedRunnerSettings(t *testing.T) {
	mon := &nopMonitor{}
	base := Config{Benchmark: "mcf", MeasureUops: 1_000, WarmupUops: 1_000, Monitor: mon}
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"MeasureUops", func(c *Config) { c.MeasureUops = 1_000_000 }},
		{"WarmupUops", func(c *Config) { c.WarmupUops = 0 }},
		{"TimelineInterval", func(c *Config) { c.TimelineInterval = 100 }},
		{"TimelineSamples", func(c *Config) { c.TimelineSamples = 8 }},
		{"Check", func(c *Config) { c.Check = true }},
		{"WatchdogCycles", func(c *Config) { c.WatchdogCycles = -1 }},
		{"FlightDumpDir", func(c *Config) { c.FlightDumpDir = "dumps" }},
		{"Monitor", func(c *Config) { c.Monitor = &nopMonitor{} }},
		{"Monitor", func(c *Config) { c.Monitor = nil }},
		{"Monitor", func(c *Config) { c.Monitor = mapMonitor{} }},
	} {
		other := base
		other.Mode = ModeHybrid
		tc.edit(&other)
		ran := 0
		err := RunAll([]Config{base, other}, func(Result) error { ran++; return nil })
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: RunAll error = %v, want one naming %s", tc.field, err, tc.field)
		}
		if ran != 0 {
			t.Errorf("%s: RunAll delivered %d results before rejecting the configs", tc.field, ran)
		}
	}
}

// TestRunAllMatchesRun checks that configs differing only in what each run
// picks share a runner and yield the same Results as separate Run calls.
func TestRunAllMatchesRun(t *testing.T) {
	base := Config{Benchmark: "mcf", MeasureUops: 2_000, WarmupUops: 2_000}
	hyb := base
	hyb.Mode, hyb.Enhancements = ModeHybrid, true
	lbm := base
	lbm.Benchmark, lbm.Prefetcher = "lbm", true
	cfgs := []Config{base, hyb, lbm}
	var got []Result
	if err := RunAll(cfgs, func(r Result) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("RunAll delivered %d results, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Benchmark != want.Benchmark || got[i].Mode != want.Mode || got[i].Cycles != want.Cycles ||
			got[i].IPCDeltaPct != want.IPCDeltaPct || got[i].DRAMRequests != want.DRAMRequests {
			t.Errorf("config %d: RunAll gave %s/%s %d cycles %+.3f%%, Run gave %s/%s %d cycles %+.3f%%", i,
				got[i].Benchmark, got[i].Mode, got[i].Cycles, got[i].IPCDeltaPct,
				want.Benchmark, want.Mode, want.Cycles, want.IPCDeltaPct)
		}
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 29 {
		t.Fatalf("Benchmarks() = %d entries", len(Benchmarks()))
	}
	if len(MediumHighBenchmarks()) != 13 {
		t.Fatalf("MediumHighBenchmarks() = %d entries", len(MediumHighBenchmarks()))
	}
	if len(Modes()) != 6 {
		t.Fatalf("Modes() = %d entries", len(Modes()))
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("have %d experiments", len(ids))
	}
	if _, err := RunExperiment("figure99", 1000); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment("table1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "192-entry ROB") {
		t.Fatalf("table1 output wrong:\n%s", out)
	}
}
