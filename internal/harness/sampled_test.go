package harness

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/workload"
)

// TestPlanCollectsRuns checks planning mode records each distinct pair once,
// in first-request order, without simulating anything.
func TestPlanCollectsRuns(t *testing.T) {
	calls := int32(0)
	r := NewRunner(Options{MeasureUops: 1_000, Progress: func(string, string) { atomic.AddInt32(&calls, 1) }})
	runs := r.Plan(func(r *Runner) {
		r.Result("mcf", Baseline)
		r.Result("mcf", BufferCC)
		r.Result("mcf", Baseline) // duplicate: must collapse
		r.Result("lbm", Baseline)
	})
	if len(runs) != 3 {
		t.Fatalf("planned %d runs, want 3: %+v", len(runs), runs)
	}
	if runs[0].Bench != "mcf" || runs[0].Config != Baseline ||
		runs[1].Config != BufferCC || runs[2].Bench != "lbm" {
		t.Fatalf("planned runs out of order: %+v", runs)
	}
	if atomic.LoadInt32(&calls) != 0 {
		t.Fatal("planning mode must not simulate (Progress fired)")
	}
	if len(r.cache) != 0 {
		t.Fatal("planning mode must not populate the cache")
	}
}

// TestPlaceholderSurvivesFigureBuilders runs every experiment builder in
// planning mode: placeholders must not trip any dereference or division in
// the figure code, and the plan must cover a plausible run count.
func TestPlaceholderSurvivesFigureBuilders(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 1_000, Benchmarks: []string{"mcf", "lbm"}})
	runs := r.Plan(func(r *Runner) {
		for _, e := range Experiments() {
			e.Build(r)
		}
	})
	if len(runs) < 10 {
		t.Fatalf("full experiment plan only has %d runs", len(runs))
	}
}

// TestPrewarmParallelByteIdentical checks the satellite guarantee: a sweep
// prewarmed on N workers renders byte-identically to a purely sequential one.
func TestPrewarmParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 6_000, WarmupUops: 6_000, Benchmarks: []string{"mcf", "libquantum"}}
	render := func(r *Runner) string {
		var sb strings.Builder
		for _, tb := range []Table{Figure9(r), Figure12(r)} {
			tb.Render(&sb)
		}
		return sb.String()
	}

	seq := NewRunner(opts)
	want := render(seq)

	par := NewRunner(opts)
	runs := par.Plan(func(r *Runner) { render(r) })
	par.Prewarm(runs, 4)
	if got := render(par); got != want {
		t.Errorf("parallel prewarmed sweep differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestResultSingleFlight checks concurrent Result calls for one pair share a
// single simulation.
func TestResultSingleFlight(t *testing.T) {
	var sims int32
	r := NewRunner(Options{MeasureUops: 3_000, WarmupUops: 3_000,
		Progress: func(string, string) { atomic.AddInt32(&sims, 1) }})
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Result("mcf", Baseline)
		}(i)
	}
	wg.Wait()
	for _, res := range results[1:] {
		if res != results[0] {
			t.Fatal("concurrent identical runs returned distinct results")
		}
	}
	if n := atomic.LoadInt32(&sims); n != 1 {
		t.Fatalf("pair simulated %d times, want 1", n)
	}
}

// TestSampledMatchesFullRun checks the acceptance bound: the sampled engine
// reproduces the full detailed run's IPC within the documented sampling
// error, in baseline and runahead-buffer modes.
func TestSampledMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const tolerancePct = 15 // documented sampling error bound (EXPERIMENTS.md)
	opts := Options{MeasureUops: 120_000, WarmupUops: 60_000}
	full := NewRunner(opts)
	sopts := opts
	sopts.Sample = &SampleOptions{Intervals: 4, WarmupUops: 20_000, Workers: 4}
	sampled := NewRunner(sopts)
	wopts := opts
	wopts.Sample = &SampleOptions{Intervals: 4, WarmupUops: 20_000, WindowUops: 15_000, Workers: 4}
	windowed := NewRunner(wopts) // true sampling: half the region fast-forwarded

	for _, rc := range []RunConfig{Baseline, BufferCC} {
		f := full.Result("mcf", rc)
		s := sampled.Result("mcf", rc)
		w := windowed.Result("mcf", rc)
		relErr := 100 * math.Abs(s.IPC-f.IPC) / f.IPC
		winErr := 100 * math.Abs(w.IPC-f.IPC) / f.IPC
		t.Logf("mcf/%s: full IPC %.3f, sampled IPC %.3f (%.1f%% error), windowed IPC %.3f (%.1f%% error)",
			rc.Label(), f.IPC, s.IPC, relErr, w.IPC, winErr)
		if relErr > tolerancePct {
			t.Errorf("mcf/%s: sampled IPC %.3f vs full %.3f: %.1f%% error exceeds %d%%",
				rc.Label(), s.IPC, f.IPC, relErr, tolerancePct)
		}
		if winErr > tolerancePct {
			t.Errorf("mcf/%s: windowed IPC %.3f vs full %.3f: %.1f%% error exceeds %d%%",
				rc.Label(), w.IPC, f.IPC, winErr, tolerancePct)
		}
		// Each window's Run overshoots by at most one commit group, so the
		// merged total lands within a few uops of the full-run budget.
		if s.Stats.Committed < opts.MeasureUops || s.Stats.Committed > opts.MeasureUops+64 {
			t.Errorf("mcf/%s: sampled measured %d uops, want ~%d", rc.Label(), s.Stats.Committed, opts.MeasureUops)
		}
		if w.Stats.Committed < 60_000 || w.Stats.Committed > 60_064 {
			t.Errorf("mcf/%s: windowed measured %d uops, want ~60000", rc.Label(), w.Stats.Committed)
		}
	}
}

// TestSampledIntervalErrorID checks the error-surfacing satellite: a failing
// detailed window is reported as an error naming its interval id instead of
// killing the worker or being swallowed.
func TestSampledIntervalErrorID(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 2_000})
	p := workload.MustLoad("mcf")
	// A checkpoint with no memory image makes the detailed core fault on
	// its first load — a stand-in for any interval-local simulator bug.
	ir := r.runInterval("mcf", Baseline, p, checkpoint{id: 3, warmup: 500, measure: 500,
		st: prog.ArchState{Index: 0}})
	if ir.err == nil {
		t.Fatal("broken interval produced no error")
	}
	if !strings.Contains(ir.err.Error(), "interval 3") {
		t.Fatalf("interval error does not name its id: %v", ir.err)
	}
}

// TestPlanEvenTiling checks the interval placement over awkward
// region/interval combinations: the strata must tile the measured region
// exactly (no overrun past the region end, no double-counted uops) and
// warmups must clamp at the region start.
func TestPlanEvenTiling(t *testing.T) {
	cases := []struct {
		name          string
		full, measure uint64
		so            SampleOptions
	}{
		{"divisible", 100_000, 120_000, SampleOptions{Intervals: 4}},
		{"remainder", 100_000, 100_001, SampleOptions{Intervals: 4}},
		{"prime-region", 50_000, 99_991, SampleOptions{Intervals: 7}},
		{"more-intervals-than-uops", 1_000, 3, SampleOptions{Intervals: 8}},
		{"one-interval", 1_000, 50_000, SampleOptions{Intervals: 1}},
		{"window-capped", 100_000, 120_000, SampleOptions{Intervals: 4, WindowUops: 10_000}},
		{"window-above-stratum", 100_000, 120_000, SampleOptions{Intervals: 4, WindowUops: 1 << 40}},
		{"warmup-exceeds-start", 10, 80_000, SampleOptions{Intervals: 4, WarmupUops: 1 << 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := planEven(tc.full, tc.measure, tc.so)
			if len(plan) == 0 {
				t.Fatal("empty plan")
			}
			end := tc.full + tc.measure
			var covered uint64
			prevEnd := tc.full
			for i, ck := range plan {
				if ck.id != i {
					t.Errorf("checkpoint %d has id %d", i, ck.id)
				}
				if ck.start < prevEnd {
					t.Errorf("interval %d starts at %d inside the previous stratum (ends %d): double-counted uops", i, ck.start, prevEnd)
				}
				if ck.start+ck.measure > end {
					t.Errorf("interval %d overruns the region: [%d, %d) vs end %d", i, ck.start, ck.start+ck.measure, end)
				}
				if ck.warmup > ck.start {
					t.Errorf("interval %d: warmup %d exceeds start %d (fast-forward would wrap)", i, ck.warmup, ck.start)
				}
				covered += ck.measure
				prevEnd = ck.start + ck.measure
			}
			if tc.so.WindowUops == 0 || tc.so.WindowUops >= tc.measure {
				// Full-parity plans must measure the whole region exactly.
				want := tc.measure
				if tc.so.WindowUops > 0 && tc.so.WindowUops < want {
					want = tc.so.WindowUops
				}
				if covered != want && tc.so.WindowUops == 0 {
					t.Errorf("strata cover %d uops, want %d", covered, tc.measure)
				}
			}
			last := plan[len(plan)-1]
			if lastEnd := last.start + last.measure; tc.so.WindowUops == 0 && lastEnd != end {
				t.Errorf("last window ends at %d, want region end %d", lastEnd, end)
			}
		})
	}
}

// TestCheckpointFFStartSaturates is the regression test for the wrapped
// fast-forward progress goal: a warmup larger than the window offset must
// clamp the goal to zero, never wrap around uint64.
func TestCheckpointFFStartSaturates(t *testing.T) {
	cases := []struct {
		start, warmup, want uint64
	}{
		{100_000, 50_000, 50_000},
		{100_000, 100_000, 0},
		{10, 1 << 30, 0},
		{0, 1, 0},
		{0, 0, 0},
	}
	for _, tc := range cases {
		ck := checkpoint{start: tc.start, warmup: tc.warmup}
		if got := ck.ffStart(); got != tc.want {
			t.Errorf("ffStart(start=%d, warmup=%d) = %d, want %d", tc.start, tc.warmup, got, tc.want)
		}
		if ck.ffStart() > math.MaxUint64/2 {
			t.Errorf("ffStart(start=%d, warmup=%d) wrapped: %d", tc.start, tc.warmup, ck.ffStart())
		}
	}
}

// goalMonitor records every Phase goal reported for the fast-forward
// pseudo-interval (-1).
type goalMonitor struct {
	mu    sync.Mutex
	goals []uint64
}

func (g *goalMonitor) RunStart(_, _ string)                  {}
func (g *goalMonitor) RunDone(_, _ string)                   {}
func (g *goalMonitor) Progress(_, _ string, _ int, _ uint64) {}
func (g *goalMonitor) Done(_, _ string, _ int)               {}
func (g *goalMonitor) Phase(_, _ string, interval int, _ string, total uint64) {
	if interval == -1 {
		g.mu.Lock()
		g.goals = append(g.goals, total)
		g.mu.Unlock()
	}
}

// TestSampledProgressGoalNoWrap runs the sampled engine with a warmup far
// larger than the first checkpoint offset and checks no telemetry goal
// wrapped around uint64 (the /progress regression).
func TestSampledProgressGoalNoWrap(t *testing.T) {
	gm := &goalMonitor{}
	opts := Options{MeasureUops: 20_000, WarmupUops: 4_000, Monitor: gm,
		Sample: &SampleOptions{Intervals: 4, WarmupUops: 1 << 40, Workers: 2}}
	r := NewRunner(opts)
	res := r.Result("mcf", Baseline)
	if res.Stats.Committed == 0 {
		t.Fatal("sampled run committed nothing")
	}
	gm.mu.Lock()
	defer gm.mu.Unlock()
	if len(gm.goals) == 0 {
		t.Fatal("monitor saw no fast-forward phases")
	}
	for _, goal := range gm.goals {
		if goal > math.MaxUint64/2 {
			t.Errorf("telemetry phase goal wrapped: %d", goal)
		}
	}
}

// TestSampledWithinCI is the confidence-interval property test: on seed
// kernels, the full-detail IPC lands inside the interval the sampled run
// reports, and the interval is well-formed. As a negative control, the
// interval must exclude the full-detail IPC of the other configuration on
// the same bench — an interval wide enough to hold both says nothing.
func TestSampledWithinCI(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 120_000, WarmupUops: 60_000}
	full := NewRunner(opts)
	sopts := opts
	sopts.Sample = &SampleOptions{Intervals: 4, WarmupUops: 20_000, WindowUops: 15_000, Workers: 4}
	sampled := NewRunner(sopts)

	for _, bench := range []string{"mcf", "libquantum"} {
		for _, pair := range [][2]RunConfig{{Baseline, BufferCC}, {BufferCC, Baseline}} {
			rc, other := pair[0], pair[1]
			f, o := full.Result(bench, rc), full.Result(bench, other)
			s := sampled.Result(bench, rc)
			ci := s.Sampling.CI("IPC")
			if ci == nil {
				t.Fatalf("%s/%s: no IPC confidence interval", bench, rc.Label())
			}
			t.Logf("%s/%s: full IPC %.4f, sampled IPC %.4f, CI [%.4f, %.4f]; full %s IPC %.4f",
				bench, rc.Label(), f.IPC, s.IPC, ci.Lo, ci.Hi, other.Label(), o.IPC)
			if math.Abs(ci.Mean-s.IPC) > 1e-9 {
				t.Errorf("%s/%s: CI mean %.6f disagrees with merged IPC %.6f", bench, rc.Label(), ci.Mean, s.IPC)
			}
			if !(0 <= ci.Lo && ci.Lo < ci.Mean && ci.Mean < ci.Hi) {
				t.Errorf("%s/%s: malformed CI [%v, %v] around %v", bench, rc.Label(), ci.Lo, ci.Hi, ci.Mean)
			}
			if f.IPC < ci.Lo || f.IPC > ci.Hi {
				t.Errorf("%s/%s: full-detail IPC %.4f outside reported CI [%.4f, %.4f]",
					bench, rc.Label(), f.IPC, ci.Lo, ci.Hi)
			}
			if o.IPC >= ci.Lo && o.IPC <= ci.Hi {
				t.Errorf("%s/%s: CI [%.4f, %.4f] also holds the full-detail %s IPC %.4f: it cannot tell the configurations apart",
					bench, rc.Label(), ci.Lo, ci.Hi, other.Label(), o.IPC)
			}
		}
	}
}

// statsBytes serializes merged run statistics for byte-level comparison.
func statsBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var w snapshot.Writer
	if err := res.Stats.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestSampledDeterministic checks that two independent sampled runs of the
// same pair on four interval workers agree bit-for-bit: same SamplingInfo,
// byte-identical merged counters.
func TestSampledDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mk := func() *Result {
		opts := Options{MeasureUops: 80_000, WarmupUops: 40_000,
			Sample: &SampleOptions{Intervals: 4, WarmupUops: 10_000, WindowUops: 10_000, Workers: 4}}
		return NewRunner(opts).Result("mcf", BufferCC)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Sampling, b.Sampling) {
		t.Errorf("SamplingInfo differs between identical runs:\n%+v\n%+v", a.Sampling, b.Sampling)
	}
	ab, bb := statsBytes(t, a), statsBytes(t, b)
	if string(ab) != string(bb) {
		t.Error("merged counters differ byte-for-byte between identical sampled runs")
	}
	if a.IPC != b.IPC || a.MPKI != b.MPKI || a.DRAMRequests != b.DRAMRequests {
		t.Errorf("derived metrics differ: IPC %v/%v MPKI %v/%v DRAM %v/%v",
			a.IPC, b.IPC, a.MPKI, b.MPKI, a.DRAMRequests, b.DRAMRequests)
	}
}

// TestSampledRejectsUnknownMode checks that a sample mode other than even
// placement fails the run with an error instead of silently sampling
// evenly.
func TestSampledRejectsUnknownMode(t *testing.T) {
	for _, mode := range []string{"phase", "bogus"} {
		r := NewRunner(Options{MeasureUops: 2_000, Sample: &SampleOptions{Mode: mode}})
		spec, _ := workload.SpecOf("mcf")
		res, err := r.runSampled("mcf", Baseline, spec)
		if err == nil || res != nil {
			t.Fatalf("mode %q: runSampled returned (%v, %v), want an error", mode, res, err)
		}
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("mode %q: error does not name the mode: %v", mode, err)
		}
	}
}

// TestReportJSONNoNaN is the zero-denominator regression test: a claims
// report over a benchmark subset that never enters runahead (an empty
// medium+high set) must marshal cleanly — encoding/json rejects NaN and Inf,
// so any unguarded 0/0 in the claim math fails this test.
func TestReportJSONNoNaN(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 1_000, Benchmarks: []string{"povray"}})
	tb := Report(r)
	if _, err := json.Marshal(tb); err != nil {
		t.Fatalf("claims report with empty medium+high subset does not marshal: %v", err)
	}
	for _, row := range tb.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
				t.Fatalf("claims table carries %q: %v", cell, row)
			}
		}
	}
}
