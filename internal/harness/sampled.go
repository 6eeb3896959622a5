package harness

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/phases"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// Sampling modes. SampleEven is PR 3's engine: N windows spaced evenly
// across the measured region, merged unweighted. SamplePhase is the
// SimPoint-style engine: the functional fast-forward first profiles
// basic-block vectors over a fine window grid, deterministic k-means groups
// the windows into phases, and only one representative window per phase is
// simulated in detail, its counters scaled up by the uops its phase covers.
const (
	SampleEven  = "even"
	SamplePhase = "phase"
)

// SampleOptions tunes the sampled-interval engine (Options.Sample). The full
// measured region is covered by detailed windows — evenly spaced, or one per
// behavior phase — each reached by restoring an architectural checkpoint
// dropped during a single functional fast-forward, then re-warmed with
// WarmupUops of detailed simulation before measuring.
type SampleOptions struct {
	// Mode selects window placement: SampleEven (default) or SamplePhase.
	Mode string
	// Intervals is the number of detailed windows in even mode, and the cap
	// on the BIC phase search in phase mode (0 = 4). Phase mode therefore
	// never simulates more detailed windows than even mode would.
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

	// Phases, when positive, pins the phase count in phase mode instead of
	// the BIC search (the -phases override).
	Phases int
	// BBVWindows is the number of windows in the phase-mode BBV profiling
	// grid (0 = 32, clamped so every window is at least one uop). More
	// windows resolve finer phase structure at slightly more functional
	// work; the detailed cost is governed by the phase count, not the grid.
	BBVWindows int
}

// SampleFlags is the sampled-interval flag set the CLIs share.
type SampleFlags struct {
	on   bool
	opts SampleOptions
}

// RegisterSampleFlags defines -sample, -sample-mode, -intervals,
// -sample-window, -sample-warmup, -phases and -bbv-windows on fs.
func RegisterSampleFlags(fs *flag.FlagSet) *SampleFlags {
	f := &SampleFlags{}
	fs.BoolVar(&f.on, "sample", false, "replace full detailed runs with checkpointed sampled intervals")
	fs.StringVar(&f.opts.Mode, "sample-mode", SampleEven, "sampled window placement: \"even\" (evenly spaced) or \"phase\" (BBV clustering, one weighted window per phase)")
	fs.IntVar(&f.opts.Intervals, "intervals", 4, "detailed intervals per sampled run (with -sample); in phase mode, the cap on the phase count")
	fs.Uint64Var(&f.opts.WindowUops, "sample-window", 0, "measured uops per sampled interval (0 = the whole region, split)")
	fs.Uint64Var(&f.opts.WarmupUops, "sample-warmup", 0, "detailed warmup uops per sampled interval (0 = 50000)")
	fs.IntVar(&f.opts.Phases, "phases", 0, "pin the phase count in -sample-mode=phase (0 = choose by BIC)")
	fs.IntVar(&f.opts.BBVWindows, "bbv-windows", 0, "BBV profiling windows in -sample-mode=phase (0 = 32)")
	return f
}

// Options returns the sampling the flags select with the given per-run
// interval Workers (nil without -sample), or an error for an unknown
// -sample-mode.
func (f *SampleFlags) Options(workers int) (*SampleOptions, error) {
	if !f.on {
		return nil, nil
	}
	if f.opts.Mode != SampleEven && f.opts.Mode != SamplePhase {
		return nil, fmt.Errorf("unknown -sample-mode %q (want even or phase)", f.opts.Mode)
	}
	so := f.opts
	so.Workers = workers
	return &so, nil
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

func (o SampleOptions) bbvWindows() int {
	if o.BBVWindows <= 0 {
		return 32
	}
	return o.BBVWindows
}

// checkpoint is one detailed window of the plan: the architectural image at
// its fast-forward point, the detailed warmup and measurement lengths, and
// the merge weight its counters carry.
type checkpoint struct {
	id      int
	st      prog.ArchState
	start   uint64 // committed-uop offset of the measured window's first uop
	warmup  uint64
	measure uint64
	// Merged counters scale by wnum/wden: the uops this window stands in
	// for over the uops it actually measures. Even mode windows tile their
	// strata and merge unweighted (1/1).
	wnum, wden uint64
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
// double-counted uops in the merged weights. A window measures its whole
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
		plan[i] = checkpoint{id: i, start: start, warmup: w, measure: m, wnum: 1, wden: 1}
	}
	return plan
}

// planFromPhases turns a phase-analysis plan into checkpoints. The full
// Intervals window budget is allocated across phases proportionally to their
// uop weight (d'Hondt highest averages, so a 1-phase workload still gets all
// Intervals windows): a phase with one window simulates its representative;
// a phase with several stratifies its member list into contiguous chunks and
// simulates the member of each chunk closest to the phase centroid, each
// window carrying its chunk's exact uop weight. The measured length is
// WindowUops when set (the SimPoint shape — measurement length independent
// of the profiling grid's resolution), the grid window otherwise, clamped so
// no window overruns the measured region's end. Detailed cost therefore
// never exceeds even mode's at the same settings. The returned checkpoints
// are in ascending start order, so the fast-forward streams them in one
// pass.
func planFromPhases(plan *phases.Plan, so SampleOptions, regionEnd uint64) []checkpoint {
	k := len(plan.Phases)
	n := so.intervals()
	if n < k {
		n = k
	}
	// Highest-averages allocation of the n windows: each extra window goes
	// to the phase maximizing Weight/(alloc+1), capped at its member count;
	// ties break to the lowest phase index.
	alloc := make([]int, k)
	for i := range alloc {
		alloc[i] = 1
	}
	for given := k; given < n; given++ {
		best := -1
		for i, ph := range plan.Phases {
			if alloc[i] >= len(ph.Members) {
				continue
			}
			if best < 0 || ph.Weight*uint64(alloc[best]+1) > plan.Phases[best].Weight*uint64(alloc[i]+1) {
				best = i
			}
		}
		if best < 0 {
			break // every phase already simulates all its windows
		}
		alloc[best]++
	}

	var cks []checkpoint
	for pi, ph := range plan.Phases {
		c := alloc[pi]
		for j := 0; j < c; j++ {
			// Every chunk member belongs to the same phase, so each is
			// equally representative; taking the chunk's first keeps the
			// windows temporally stratified, and makes the k=1 degenerate
			// case reproduce even mode's placement exactly.
			chunk := ph.Members[j*len(ph.Members)/c : (j+1)*len(ph.Members)/c]
			rep := chunk[0]
			var weight uint64
			for _, mem := range chunk {
				weight += plan.Windows[mem].Len
			}
			win := plan.Windows[rep]
			m := win.Len
			if so.WindowUops > 0 {
				m = so.WindowUops
			}
			if win.Start+m > regionEnd {
				m = regionEnd - win.Start
			}
			w := so.warmupUops()
			if w > win.Start {
				w = win.Start
			}
			den := m
			if den == 0 {
				den = 1
			}
			cks = append(cks, checkpoint{start: win.Start, warmup: w, measure: m, wnum: weight, wden: den})
		}
	}
	sort.Slice(cks, func(a, b int) bool { return cks[a].start < cks[b].start })
	// Uniform weights cancel in every ratio metric (IPC, MPKI, stall
	// fractions are all ratio-of-sums, and the jackknife's leave-one-out
	// ratios scale the same way), so when every window carries the same
	// wnum/wden the plan collapses to unit weights. This skips ScaleU64's
	// per-counter rounding on the merge path, making the k=1 degenerate case
	// bit-identical to even mode rather than equal-to-within-rounding.
	uniform := true
	for i := 1; i < len(cks); i++ {
		if cks[i].wnum*cks[0].wden != cks[0].wnum*cks[i].wden {
			uniform = false
			break
		}
	}
	if uniform {
		for i := range cks {
			cks[i].wnum, cks[i].wden = 1, 1
		}
	}
	for i := range cks {
		cks[i].id = i
	}
	return cks
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
	p := workload.MustLoad(bench)

	full := r.opts.warmup(spec.Class)
	measure := r.opts.MeasureUops
	label := rc.Label()
	m := r.opts.Monitor

	var plan []checkpoint
	var phasePlan *phases.Plan
	if so.Mode == SamplePhase {
		pp, err := r.profilePhases(bench, label, p, full, measure, so)
		if err != nil {
			return nil, err
		}
		phasePlan = pp
		plan = planFromPhases(phasePlan, so, full+measure)
	} else {
		plan = planEven(full, measure, so)
	}
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
		ck := plan[i]
		merged.MergeScaled(ir.Stats, ck.wnum, ck.wden)
		act.L1DAccesses += stats.ScaleU64(ir.Activity.L1DAccesses, ck.wnum, ck.wden)
		act.L1IAccesses += stats.ScaleU64(ir.Activity.L1IAccesses, ck.wnum, ck.wden)
		act.LLCAccesses += stats.ScaleU64(ir.Activity.LLCAccesses, ck.wnum, ck.wden)
		act.DRAMReads += stats.ScaleU64(ir.Activity.DRAMReads, ck.wnum, ck.wden)
		act.DRAMWrites += stats.ScaleU64(ir.Activity.DRAMWrites, ck.wnum, ck.wden)
		act.DRAMActivates += stats.ScaleU64(ir.Activity.DRAMActivates, ck.wnum, ck.wden)
		llcMisses += stats.ScaleU64(ir.LLCMisses, ck.wnum, ck.wden)
		res.DRAMRequests += stats.ScaleU64(ir.DRAMRequests, ck.wnum, ck.wden)
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
		Mode:         so.Mode,
		Intervals:    n,
		DetailedUops: detailedUops(plan),
	}
	if res.Sampling.Mode == "" {
		res.Sampling.Mode = SampleEven
	}
	if phasePlan != nil {
		res.Sampling.BBVWindows = len(phasePlan.Windows)
		res.Sampling.Phases = phasePlan.K()
		res.Sampling.Dispersion = phasePlan.AvgDispersion()
		res.Sampling.CIs = sampleCIs(plan, results, phasePlan)
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
