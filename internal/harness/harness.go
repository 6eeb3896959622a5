// Package harness regenerates every table and figure of the paper's
// evaluation: it runs (benchmark, configuration) pairs on the simulator,
// memoizes the results, and formats them as text tables matching the rows
// and series the paper reports. cmd/runahead-sweep and the repository's
// bench_test.go are thin wrappers around this package.
package harness

import (
	"fmt"
	"sync"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// RunConfig selects one simulated system (one bar color in the figures).
type RunConfig struct {
	Mode         core.Mode
	Enhancements bool
	Prefetch     bool
	DepTrack     bool

	// Sensitivity overrides (0 = Table 1 value). MaxChain sets both the
	// runahead buffer size and the chain-length cap; CCEntries sets the
	// chain cache entry count.
	MaxChain  int
	CCEntries int

	// PFKind selects the prefetch engine when Prefetch is set: "" or
	// "stream" for the paper's stream prefetcher, "delta" for the
	// region-delta (stride) alternative.
	PFKind string
}

// The systems evaluated in Section 6.
var (
	Baseline    = RunConfig{Mode: core.ModeNone}
	Runahead    = RunConfig{Mode: core.ModeTraditional}
	RunaheadEnh = RunConfig{Mode: core.ModeTraditional, Enhancements: true}
	Buffer      = RunConfig{Mode: core.ModeBuffer}
	BufferCC    = RunConfig{Mode: core.ModeBufferCC}
	Hybrid      = RunConfig{Mode: core.ModeHybrid, Enhancements: true}
)

// WithPF returns the configuration with the stream prefetcher enabled.
func (rc RunConfig) WithPF() RunConfig { rc.Prefetch = true; return rc }

// WithDepTrack returns the configuration with Figure 2-5 instrumentation.
func (rc RunConfig) WithDepTrack() RunConfig { rc.DepTrack = true; return rc }

// Label names the configuration the way the figures do.
func (rc RunConfig) Label() string {
	var s string
	switch {
	case rc.Mode == core.ModeNone && rc.Prefetch:
		return "PF"
	case rc.Mode == core.ModeNone:
		return "Base"
	case rc.Mode == core.ModeTraditional && rc.Enhancements:
		s = "RA-Enh"
	case rc.Mode == core.ModeTraditional:
		s = "RA"
	case rc.Mode == core.ModeBuffer:
		s = "RB"
	case rc.Mode == core.ModeBufferCC:
		s = "RB+CC"
	default:
		s = "Hybrid"
	}
	if rc.Prefetch {
		s += "+PF"
	}
	return s
}

// Result summarizes one (benchmark, configuration) run.
type Result struct {
	Bench  string
	Config RunConfig

	Stats  *core.Stats
	Energy energy.Breakdown

	// Timeline holds the run's interval samples when the runner's
	// TimelineInterval option is set (nil otherwise).
	Timeline *stats.Timeline

	IPC          float64
	MPKI         float64
	MemStallPct  float64
	DRAMRequests uint64

	// Chains holds Figure 7-style renderings of the dependence chains left
	// in the chain cache at the end of the run (at most two).
	Chains []string

	// Sampling describes how this result was sampled (nil for full-detail
	// runs): the mode, the detailed-uop cost, and — in phase mode — the
	// phase structure and per-metric confidence intervals.
	Sampling *SamplingInfo

	// Provenance records how this result was produced: ProvenanceDetailed
	// for simulator runs (full-detail or sampled), ProvenanceTwin for
	// analytical-twin predictions under a screened sweep.
	Provenance string
}

// Options tunes harness runs. MeasureUops trades fidelity for speed; the
// paper simulated 50M-instruction SimPoints, but the synthetic kernels are
// phase-free so their steady state emerges within a few hundred thousand.
type Options struct {
	MeasureUops uint64
	WarmupUops  uint64 // 0 = automatic (longer for small-footprint benchmarks)
	// Benchmarks restricts figures to a subset (nil = the figure's full
	// set). Used by the scaled-down `go test -bench` harness.
	Benchmarks []string
	// Progress is invoked once per simulated run. During Prewarm it is
	// called from worker goroutines concurrently; it must be safe for that.
	Progress func(bench, config string)

	// Monitor, when non-nil, receives live progress from every simulated
	// run: run boundaries, phase transitions, and periodic committed-uop
	// updates (every progressChunk uops, via chunked Run calls that are
	// bit-identical to one call). Calls arrive from worker goroutines
	// concurrently. telemetry.Tracker implements this interface.
	Monitor Monitor

	// Sample, when non-nil, replaces each full detailed run with the
	// sampled-interval engine: a functional fast-forward drops periodic
	// architectural checkpoints, detailed intervals are simulated from them
	// (warmup + measure each), and their statistics are merged. Timelines
	// and simcheck full-run checking are unavailable in this mode (each
	// interval still runs the resumed-oracle checker when Check is set).
	Sample *SampleOptions

	// TimelineInterval, when positive, attaches an interval sampler to every
	// measured run; each Result then carries a Timeline. TimelineSamples
	// bounds the retained ring (0 = 4096).
	TimelineInterval int64
	TimelineSamples  int

	// Check attaches the simcheck sanitizer (lockstep architectural oracle
	// plus per-cycle structural invariants) to every run; a violation
	// panics with full context. Binaries built with the simcheck build tag
	// force this on for all runs.
	Check bool

	// FlightDumpDir, when non-empty, is where a dying run writes its flight
	// recorder — the core's ring of recent trace events — as JSONL before
	// the panic propagates. Empty disables dumping.
	FlightDumpDir string

	// WatchdogCycles, when nonzero, overrides the core's deadlock watchdog
	// for every run: positive sets the no-progress cycle budget, negative
	// disables the watchdog entirely. Zero keeps the Table 1 default.
	WatchdogCycles int64
}

func (o Options) warmup(class workload.Class) uint64 {
	if o.WarmupUops > 0 {
		return o.WarmupUops
	}
	if class == workload.Low {
		// Small footprints must wrap before steady-state MPKI emerges.
		return 500_000
	}
	return 100_000
}

// Runner memoizes simulation runs across figures, since most figures share
// configurations. It is safe for concurrent use: parallel Result calls for
// distinct pairs simulate concurrently, while calls for the same pair share
// one run (single-flight).
type Runner struct {
	opts Options

	mu       sync.Mutex
	cache    map[string]*entry
	mixCache map[string]*mixEntry
	profiles map[string]*profEntry

	// screen, when set (see SetScreen), routes non-promoted pairs to the
	// analytical twin instead of the detailed simulator.
	screen *Screen

	// profileWallNanos accumulates wall time spent in interpreter-speed
	// profiling passes (BBV phase profiling, twin profiling), read via
	// ProfileWallSec. Accessed atomically.
	profileWallNanos int64

	// Planning mode (see Plan): Result records the requested pair and
	// returns a placeholder instead of simulating.
	planning bool
	planSeen map[string]bool
	planned  []PlannedRun
}

// entry is one memoized run; once gates the single simulation.
type entry struct {
	once sync.Once
	res  *Result
}

// PlannedRun names one (benchmark, configuration) pair a set of experiments
// will request, in first-request order.
type PlannedRun struct {
	Bench  string
	Config RunConfig
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.MeasureUops == 0 {
		opts.MeasureUops = 150_000 // the sweep default
	}
	return &Runner{
		opts:     opts,
		cache:    make(map[string]*entry),
		mixCache: make(map[string]*mixEntry),
		profiles: make(map[string]*profEntry),
	}
}

// key builds the memo-cache key for one (benchmark, configuration) pair.
// Every field is rendered explicitly — the mode as its numeric value, bools
// as %t — so two distinct configurations can never collide through a shared
// String() rendering (e.g. out-of-range modes both printing "unknown").
func key(bench string, rc RunConfig) string {
	return fmt.Sprintf("%s|%d|%t|%t|%t|%d|%d|%s",
		bench, uint8(rc.Mode), rc.Enhancements, rc.Prefetch, rc.DepTrack, rc.MaxChain, rc.CCEntries, rc.PFKind)
}

// Result runs (or returns the cached run of) one benchmark under one
// configuration.
func (r *Runner) Result(bench string, rc RunConfig) *Result {
	k := key(bench, rc)
	r.mu.Lock()
	if r.planning {
		if !r.planSeen[k] {
			r.planSeen[k] = true
			r.planned = append(r.planned, PlannedRun{Bench: bench, Config: rc})
		}
		r.mu.Unlock()
		return placeholderResult(bench, rc)
	}
	e := r.cache[k]
	if e == nil {
		e = &entry{}
		r.cache[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.res = r.run(bench, rc) })
	return e.res
}

// Plan invokes fn with the runner in planning mode: every Result call inside
// records its (benchmark, configuration) pair and returns a placeholder
// without simulating. It returns the distinct pairs in first-request order —
// the exact work list a later Prewarm needs. Placeholder-derived output must
// be discarded; fn is for discovering the run set, not for rendering.
func (r *Runner) Plan(fn func(*Runner)) []PlannedRun {
	r.mu.Lock()
	r.planning = true
	r.planSeen = make(map[string]bool)
	r.planned = nil
	r.mu.Unlock()
	fn(r)
	r.mu.Lock()
	runs := r.planned
	r.planning = false
	r.planSeen = nil
	r.planned = nil
	r.mu.Unlock()
	return runs
}

// Prewarm simulates the given runs on a pool of `workers` goroutines,
// filling the memo cache so subsequent Result calls return instantly. Since
// results are memoized by pair, a prewarmed sweep renders byte-identically
// to a sequential one — parallelism changes only who computes each entry.
func (r *Runner) Prewarm(runs []PlannedRun, workers int) {
	forEach(len(runs), workers, func(i int) { r.Result(runs[i].Bench, runs[i].Config) })
}

// forEach calls fn(0) .. fn(n-1) on a pool of at most `workers` goroutines
// (at least one), handing out indices in order, and returns when all are
// done.
func forEach(n, workers int, fn func(i int)) {
	workers = min(max(workers, 1), max(n, 1))
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// placeholderResult stands in for a real run during planning. Histograms are
// allocated and denominators nonzero so figure builders that dereference or
// divide don't trip; everything derived from it is discarded.
func placeholderResult(bench string, rc RunConfig) *Result {
	return &Result{Bench: bench, Config: rc, Stats: core.NewPlaceholderStats(), IPC: 1}
}

// run simulates one (benchmark, configuration) pair — full-detail, sampled,
// or (under an active screen, for non-promoted pairs) twin-predicted.
func (r *Runner) run(bench string, rc RunConfig) *Result {
	spec, ok := workload.SpecOf(bench)
	if !ok {
		panic(fmt.Sprintf("harness: unknown benchmark %q", bench))
	}
	r.mu.Lock()
	sc := r.screen
	r.mu.Unlock()
	if sc != nil && !sc.WantsDetailed(bench, rc) {
		return r.twinRun(sc, bench, rc)
	}
	label := rc.Label()
	if r.opts.Progress != nil {
		r.opts.Progress(bench, label)
	}
	if m := r.opts.Monitor; m != nil {
		m.RunStart(bench, label)
		defer m.RunDone(bench, label)
	}
	if r.opts.Sample != nil {
		res, err := r.runSampled(bench, rc, spec)
		if err != nil {
			panic(fmt.Sprintf("harness: sampled run %s/%s: %v", bench, label, err))
		}
		res.Provenance = ProvenanceDetailed
		return res
	}
	s, err := NewSession(r.opts, bench, rc, workload.MustLoad(bench), Start{})
	if err != nil {
		panic(fmt.Sprintf("harness: %s/%s: %v", bench, label, err))
	}
	ms := s.Measure(r.opts.warmup(spec.Class), r.opts.MeasureUops)
	st := ms.Stats
	return &Result{
		Bench:        bench,
		Config:       rc,
		Stats:        st,
		Timeline:     ms.Timeline,
		Provenance:   ProvenanceDetailed,
		Energy:       energy.Compute(energy.DefaultParams(), ms.Activity),
		IPC:          st.IPC(),
		MPKI:         1000 * stats.Div(float64(ms.LLCMisses), float64(st.Committed)),
		MemStallPct:  100 * stats.Div(float64(st.MemStallCycles), float64(st.Cycles)),
		DRAMRequests: ms.DRAMRequests,
		Chains:       ms.Chains,
	}
}
