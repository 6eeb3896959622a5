package harness

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// SampleEven names the sampling engine's window placement: N windows
// spaced evenly across the measured region, merged unweighted. It is the
// only placement; SampleOptions.Mode accepts it or the empty string.
const SampleEven = "even"

// SampleOptions tunes the sampled-interval engine (Options.Sample). The full
// measured region is covered by evenly spaced detailed windows, each reached
// by restoring an architectural checkpoint dropped during a single
// functional fast-forward, then re-warmed with WarmupUops of detailed
// simulation before measuring.
type SampleOptions struct {
	// Mode names the window placement: "" or SampleEven. Any other value
	// fails the run rather than falling back.
	Mode string
	// Intervals is the number of detailed windows (0 = 4).
	Intervals int
	// WarmupUops is the detailed warmup run before each window's
	// measurement, re-warming caches and predictor from the cold
	// checkpoint state (0 = 50_000).
	WarmupUops uint64
	// WindowUops is the measured length of each window. 0 (or anything at
	// least the stratum length) measures the whole region in windows —
	// detailed-execution parity with a full run, speedup from workers
	// only. Smaller values measure just a sample of each stratum and
	// fast-forward the rest, which is where the serial speedup comes
	// from: detailed work drops from the full measured region to
	// Intervals*(WarmupUops+WindowUops).
	WindowUops uint64
	// Workers bounds how many windows simulate concurrently
	// (0 = GOMAXPROCS).
	Workers int
}

// SampleFlags is the sampled-interval flag set the CLIs share.
type SampleFlags struct {
	on   bool
	opts SampleOptions
}

// RegisterSampleFlags defines -sample, -intervals, -sample-window and
// -sample-warmup on fs.
func RegisterSampleFlags(fs *flag.FlagSet) *SampleFlags {
	f := &SampleFlags{}
	fs.BoolVar(&f.on, "sample", false, "replace full detailed runs with checkpointed sampled intervals")
	fs.IntVar(&f.opts.Intervals, "intervals", 4, "detailed intervals per sampled run (with -sample)")
	fs.Uint64Var(&f.opts.WindowUops, "sample-window", 0, "measured uops per sampled interval (0 = the whole region, split)")
	fs.Uint64Var(&f.opts.WarmupUops, "sample-warmup", 0, "detailed warmup uops per sampled interval (0 = 50000)")
	return f
}

// Options returns the sampling the flags select with the given per-run
// interval Workers, or nil without -sample.
func (f *SampleFlags) Options(workers int) *SampleOptions {
	if !f.on {
		return nil
	}
	so := f.opts
	so.Workers = workers
	return &so
}

func (o SampleOptions) intervals() int {
	if o.Intervals <= 0 {
		return 4
	}
	return o.Intervals
}

func (o SampleOptions) warmupUops() uint64 {
	if o.WarmupUops == 0 {
		return 50_000
	}
	return o.WarmupUops
}

func (o SampleOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// checkpoint is one detailed window of the plan: the architectural image at
// its fast-forward point and the detailed warmup and measurement lengths.
type checkpoint struct {
	id      int
	st      prog.ArchState
	start   uint64 // committed-uop offset of the measured window's first uop
	warmup  uint64
	measure uint64
}

// ffStart returns the committed-uop offset the functional fast-forward must
// reach before this window's checkpoint is taken, saturating at zero so an
// oversized warmup can never wrap the progress goal around uint64.
func (ck checkpoint) ffStart() uint64 {
	if ck.warmup > ck.start {
		return 0
	}
	return ck.start - ck.warmup
}

// planEven places n evenly spaced windows over the measured region
// [full, full+measure). Window i owns stratum [full+i*step, full+(i+1)*step),
// with the division remainder folded into the last stratum so the strata
// tile the region exactly — no overrun past the region end and no
// double-counted uops in the merge. A window measures its whole
// stratum, or just WindowUops of it when a smaller sample is requested.
func planEven(full, measure uint64, so SampleOptions) []checkpoint {
	n := so.intervals()
	if uint64(n) > measure {
		n = 1
	}
	step := measure / uint64(n)
	plan := make([]checkpoint, n)
	for i := 0; i < n; i++ {
		start := full + uint64(i)*step
		m := step
		if i == n-1 {
			m = measure - step*uint64(n-1)
		}
		if so.WindowUops > 0 && so.WindowUops < m {
			m = so.WindowUops
		}
		w := so.warmupUops()
		if w > start {
			w = start
		}
		plan[i] = checkpoint{id: i, start: start, warmup: w, measure: m}
	}
	return plan
}

// detailedUops returns the detailed-simulation cost of a plan: every warmup
// and measured uop that runs on the out-of-order core.
func detailedUops(plan []checkpoint) uint64 {
	var n uint64
	for _, ck := range plan {
		n += ck.warmup + ck.measure
	}
	return n
}

// intervalResult carries one simulated window's measurement back to the
// merge.
type intervalResult struct {
	Measurement
	err error
}

// runSampled approximates one full run by merging sampled detailed windows.
// Any window that fails — a panic in the detailed core, a simcheck
// violation, a fast-forward fault — fails the whole run, reported under the
// lowest failing interval id.
func (r *Runner) runSampled(bench string, rc RunConfig, spec workload.Spec) (*Result, error) {
	so := *r.opts.Sample
	if so.Mode != "" && so.Mode != SampleEven {
		return nil, fmt.Errorf("unknown sample mode %q (want %q)", so.Mode, SampleEven)
	}
	p := workload.MustLoad(bench)

	full := r.opts.warmup(spec.Class)
	measure := r.opts.MeasureUops
	label := rc.Label()
	m := r.opts.Monitor

	plan := planEven(full, measure, so)
	n := len(plan)

	// One interpreter streams through the program once, dropping each
	// checkpoint as it passes; the bounded channel keeps at most a couple
	// of memory images alive beyond the ones workers hold.
	cks := make(chan checkpoint, 1)
	var capErr error
	go func() {
		defer close(cks)
		defer func() {
			if rec := recover(); rec != nil {
				capErr = fmt.Errorf("functional fast-forward: %v", rec)
			}
		}()
		in := prog.NewInterp(p)
		if m != nil {
			// The fast-forward's goal is the last checkpoint's position,
			// saturating at zero when the warmup exceeds the window offset.
			m.Phase(bench, label, -1, "fast-forward", plan[n-1].ffStart())
			defer m.Done(bench, label, -1)
		}
		for _, ck := range plan {
			if ff := ck.ffStart(); ff > in.Count() {
				in.Run(ff - in.Count())
			}
			ck.st = in.ArchState()
			if m != nil {
				m.Progress(bench, label, -1, in.Count())
			}
			cks <- ck
		}
	}()

	results := make([]intervalResult, n)
	var wg sync.WaitGroup
	for w := 0; w < so.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ck := range cks {
				results[ck.id] = r.runInterval(bench, rc, p, ck)
			}
		}()
	}
	wg.Wait()

	if capErr != nil {
		return nil, capErr
	}
	merged := core.NewStats()
	var act energy.Activity
	act.Stats = merged
	var llcMisses uint64
	res := &Result{Bench: bench, Config: rc, Stats: merged}
	for i := range results {
		ir := &results[i]
		if ir.err != nil {
			return nil, ir.err
		}
		if ir.Stats == nil {
			return nil, fmt.Errorf("interval %d: no result", i)
		}
		merged.Merge(ir.Stats)
		act.L1DAccesses += ir.Activity.L1DAccesses
		act.L1IAccesses += ir.Activity.L1IAccesses
		act.LLCAccesses += ir.Activity.LLCAccesses
		act.DRAMReads += ir.Activity.DRAMReads
		act.DRAMWrites += ir.Activity.DRAMWrites
		act.DRAMActivates += ir.Activity.DRAMActivates
		llcMisses += ir.LLCMisses
		res.DRAMRequests += ir.DRAMRequests
		if len(ir.Chains) > 0 {
			res.Chains = ir.Chains // keep the latest window's chains
		}
	}
	// The energy model is linear in its counters, so computing it over the
	// summed activity equals summing per-window breakdowns.
	res.Energy = energy.Compute(energy.DefaultParams(), act)
	res.IPC = merged.IPC()
	res.MPKI = 1000 * stats.Div(float64(llcMisses), float64(merged.Committed))
	res.MemStallPct = 100 * stats.Div(float64(merged.MemStallCycles), float64(merged.Cycles))

	res.Sampling = &SamplingInfo{
		Intervals:    n,
		DetailedUops: detailedUops(plan),
		CIs:          sampleCIs(plan, results),
	}
	return res, nil
}

// runInterval simulates one detailed window from its checkpoint. Panics
// (core bugs, simcheck violations) surface as errors tagged with the
// interval id rather than killing the worker pool; the session has already
// dumped the dying window's flight recorder when FlightDumpDir is set.
func (r *Runner) runInterval(bench string, rc RunConfig, p *prog.Program, ck checkpoint) (ir intervalResult) {
	defer func() {
		if rec := recover(); rec != nil {
			ir.err = fmt.Errorf("interval %d: %v", ck.id, rec)
		}
	}()
	s := Session{opts: r.opts, bench: bench, label: rc.Label(), interval: ck.id}
	if err := s.build(rc, p, FromArch(ck.st)); err != nil {
		panic(err)
	}
	ir.Measurement = s.Measure(ck.warmup, ck.measure)
	return ir
}

// SamplingInfo describes how a sampled result was produced, attached to
// Result so reports can show the accuracy/cost trade alongside the metrics.
type SamplingInfo struct {
	// Intervals is the number of detailed windows actually simulated.
	Intervals int `json:"intervals"`
	// DetailedUops is the total detailed-simulation cost (warmup + measured
	// uops across all windows) — the denominator of any accuracy-per-cost
	// comparison.
	DetailedUops uint64 `json:"detailed_uops"`
	// CIs are per-metric 95% confidence intervals for the merged estimates.
	CIs []SampleCI `json:"cis,omitempty"`
}

// SampleCI is a confidence interval for one sampled metric estimate.
type SampleCI struct {
	Metric string  `json:"metric"`
	Mean   float64 `json:"mean"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// CI returns the interval for the named metric, or nil when absent.
func (si *SamplingInfo) CI(metric string) *SampleCI {
	if si == nil {
		return nil
	}
	for i := range si.CIs {
		if si.CIs[i].Metric == metric {
			return &si.CIs[i]
		}
	}
	return nil
}

const (
	// ciZ is the normal 95% critical value applied to the jackknife
	// standard error.
	ciZ = 1.96
	// ciFloorRel is a relative floor added to every half-width: with a
	// handful of windows the jackknife variance underestimates badly (and
	// is zero for one window), while sampling error below a few percent is
	// indistinguishable from warmup noise anyway.
	ciFloorRel = 0.03
	// ciTransientUops is the empirical cold-start transient scale. Every
	// detailed window re-warms microarchitectural state for WarmupUops, but
	// the deep structures (chain cache, runahead intervals in flight)
	// carry a residual transient on the order of a couple thousand uops
	// that biases every window the same way — invisible to the jackknife,
	// shrinking inversely with the measured window length. Calibrated so
	// the full-detail IPC of the seed kernels lands inside the interval
	// from 15k-uop windows (where the engine's error peaks near its
	// documented bound) down to full-parity strata (where the term
	// vanishes into the floor).
	ciTransientUops = 2000.0
)

// SamplingTable renders the per-metric 95% confidence intervals carried by
// sampled results: one row per (benchmark, configuration) pair that was
// simulated with sampling. Full-detail rows are skipped.
func SamplingTable(r *Runner) Table {
	t := Table{ID: "sampling", Title: "Sampling confidence intervals (95%)",
		Columns: []string{"Benchmark", "Config", "IPC", "IPC CI", "MPKI CI", "MemStall% CI"}}
	ci := func(si *SamplingInfo, metric string) string {
		c := si.CI(metric)
		if c == nil {
			return "-"
		}
		return fmt.Sprintf("[%.3f, %.3f]", c.Lo, c.Hi)
	}
	for _, name := range r.mhNames() {
		for _, rc := range []RunConfig{Baseline, BufferCC, Hybrid} {
			res := r.Result(name, rc)
			si := res.Sampling
			if si == nil || len(si.CIs) == 0 {
				continue
			}
			t.AddRow(name, rc.Label(), fmt.Sprintf("%.3f", res.IPC), ci(si, "IPC"), ci(si, "MPKI"), ci(si, "MemStallPct"))
		}
	}
	if len(t.Rows) == 0 {
		t.Notes = append(t.Notes, "no sampled runs (use -sample)")
	}
	return t
}

// sampleCIs builds 95% confidence intervals for the merged ratio-of-sums
// estimators (IPC, MPKI, MemStallPct). The variance term is a delete-one
// jackknife with each window its own unit; on top of it every half-width
// carries a relative floor plus a cold-start transient term that shrinks
// with the shortest measured window.
func sampleCIs(plan []checkpoint, results []intervalResult) []SampleCI {
	type ratio struct {
		name string
		num  func(*intervalResult) float64
		den  func(*intervalResult) float64
	}
	metrics := []ratio{
		{"IPC",
			func(ir *intervalResult) float64 { return float64(ir.Stats.Committed) },
			func(ir *intervalResult) float64 { return float64(ir.Stats.Cycles) }},
		{"MPKI",
			func(ir *intervalResult) float64 { return 1000 * float64(ir.LLCMisses) },
			func(ir *intervalResult) float64 { return float64(ir.Stats.Committed) }},
		{"MemStallPct",
			func(ir *intervalResult) float64 { return 100 * float64(ir.Stats.MemStallCycles) },
			func(ir *intervalResult) float64 { return float64(ir.Stats.Cycles) }},
	}
	k := len(plan)
	minMeasure := plan[0].measure
	for _, ck := range plan {
		minMeasure = min(minMeasure, ck.measure)
	}
	relFloor := ciFloorRel
	if minMeasure > 0 {
		relFloor += ciTransientUops / float64(minMeasure)
	}
	nums := make([]float64, k)
	dens := make([]float64, k)
	loo := make([]float64, k)
	cis := make([]SampleCI, 0, len(metrics))
	for _, mt := range metrics {
		var sn, sd float64
		for i := range results {
			nums[i] = mt.num(&results[i])
			dens[i] = mt.den(&results[i])
			sn += nums[i]
			sd += dens[i]
		}
		mean := stats.Div(sn, sd)
		var varJack float64
		if k > 1 {
			var avg float64
			for i := 0; i < k; i++ {
				loo[i] = stats.Div(sn-nums[i], sd-dens[i])
				avg += loo[i]
			}
			avg /= float64(k)
			for i := 0; i < k; i++ {
				d := loo[i] - avg
				varJack += d * d
			}
			varJack *= float64(k-1) / float64(k)
		}
		half := ciZ*math.Sqrt(varJack) + mean*relFloor
		cis = append(cis, SampleCI{Metric: mt.name, Mean: mean, Lo: max(mean-half, 0), Hi: mean + half})
	}
	return cis
}
