package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"runaheadsim/internal/core"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
)

// cellResult is one simulated cell (a kernel under one configuration) of a
// workload, run once.
type cellResult struct {
	name   string
	digest string // simcheck.StatsDigest of the measured region, in hex
	err    error  // panic, watchdog trip or oracle violation

	setup time.Duration // program lookup plus machine construction
	wall  time.Duration // simulation, warmup included
	// uops and issued count committed and issued uops over the whole cell,
	// warmup included, on every core.
	uops, issued uint64

	sim simTotals // measured-region counters (deterministic)
}

// passResult is one run over every cell of a workload.
type passResult struct {
	setup, wall time.Duration
	cells       []cellResult

	allocBytes uint64
	gcCount    uint32
	gcPause    time.Duration

	spans map[string]time.Duration // traced passes only
	// Harness worker pool (sweep-sampled only): summed cell busy time over
	// the pool's capacity, and the slowest cell.
	busyFrac float64
	longest  time.Duration
	// extra holds workload-specific deterministic results, such as
	// weighted speedups and sampling error.
	extra []metric
}

func (p *passResult) uops() (uops, issued uint64) {
	for _, c := range p.cells {
		uops += c.uops
		issued += c.issued
	}
	return uops, issued
}

// suite is one benchmark workload.
type suite interface {
	// prepare builds every program the workload runs. Programs are built
	// once per process, so this is the one-time part of setup_s.
	prepare() error
	// check runs every cell once, untimed, with the simcheck oracle
	// attached, and returns each cell's digest.
	check() []cellResult
	// pass runs every cell once, in an order drawn from rng. tr is nil
	// on untraced passes.
	pass(rng *rand.Rand, tr *tracer) passResult
}

// tracer accumulates span durations by name during a traced pass.
type tracer struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]time.Duration{}} }

// span charges the time since start to name. A nil tracer records nothing.
func (t *tracer) span(name string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	t.spans[name] += d
	t.mu.Unlock()
}

// simTotals sums the simulated counters of measured regions.
type simTotals struct {
	committed, issued, fetched, squashed, mispredicts uint64
	cycles, feGated, memStall                         int64
	warped, simulated                                 int64 // whole-run cycles skipped by the clock warp, of all cycles
	raIntervals, raUops, raMisses                     uint64
	chainSearches, chainFails, ccHits, ccMisses       uint64
	llcMisses, dramReqs, dramRejects                  uint64
	rowHits, rowAccesses, latSum, latCount            uint64
	ipcs                                              []float64
}

func (s *simTotals) addStats(st *core.Stats) {
	s.committed += st.Committed
	s.issued += st.Issued
	s.fetched += st.Fetched
	s.squashed += st.SquashedUops
	s.mispredicts += st.Mispredicts
	s.cycles += st.Cycles
	s.feGated += st.FEGatedCycles
	s.memStall += st.MemStallCycles
	s.raIntervals += st.RunaheadIntervals
	s.raUops += st.RunaheadUops
	s.raMisses += st.RunaheadMissesLLC
	s.chainSearches += st.PCCAMSearches
	s.chainFails += st.ChainGenFailures
	s.ccHits += st.ChainCacheHits
	s.ccMisses += st.ChainCacheMisses
	s.ipcs = append(s.ipcs, st.IPC())
}

// addMemory adds the measured-region counters of a hierarchy's shared LLC
// and DRAM controller.
func (s *simTotals) addMemory(h *memsys.Hierarchy) {
	s.llcMisses += h.LLCDemandMisses
	s.dramReqs += h.TotalDRAMRequests()
	d := h.DRAM()
	s.dramRejects += d.Rejects
	s.rowHits += d.RowHits
	s.rowAccesses += d.RowHits + d.RowMisses + d.RowConflicts
	s.latSum += d.Latency.Sum
	s.latCount += d.Latency.Count
}

func (s *simTotals) merge(o simTotals) {
	s.committed += o.committed
	s.issued += o.issued
	s.fetched += o.fetched
	s.squashed += o.squashed
	s.mispredicts += o.mispredicts
	s.cycles += o.cycles
	s.feGated += o.feGated
	s.memStall += o.memStall
	s.warped += o.warped
	s.simulated += o.simulated
	s.raIntervals += o.raIntervals
	s.raUops += o.raUops
	s.raMisses += o.raMisses
	s.chainSearches += o.chainSearches
	s.chainFails += o.chainFails
	s.ccHits += o.ccHits
	s.ccMisses += o.ccMisses
	s.llcMisses += o.llcMisses
	s.dramReqs += o.dramReqs
	s.dramRejects += o.dramRejects
	s.rowHits += o.rowHits
	s.rowAccesses += o.rowAccesses
	s.latSum += o.latSum
	s.latCount += o.latCount
	s.ipcs = append(s.ipcs, o.ipcs...)
}

// digestOf renders simcheck.StatsDigest of each stats block, joined.
func digestOf(sts ...*core.Stats) string {
	var b bytes.Buffer
	for i, st := range sts {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%016x", simcheck.StatsDigest(st))
	}
	return b.String()
}

// guard turns a panic in a cell into the cell's error, so that one failing
// cell is counted instead of ending the run.
func guard(res *cellResult) {
	if rec := recover(); rec != nil {
		res.err = fmt.Errorf("panic: %v", rec)
	}
}

// measure runs one pass and adds the allocator and GC deltas. With prof
// set, the pass runs under the CPU profiler, which writes to prof.
func measure(s suite, rng *rand.Rand, tr *tracer, prof io.Writer) (passResult, error) {
	var before, after runtime.MemStats
	runtime.GC() // start every pass from the same heap
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return passResult{}, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	p := s.pass(rng, tr)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCount = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if tr != nil {
		p.spans = tr.spans
	}
	return p, nil
}

// profiled runs one traced pass under the CPU profiler and folds its
// samples into acc by layer, returning the CPU time folded.
func profiled(s suite, rng *rand.Rand, acc map[string]int64) (passResult, int64, error) {
	var buf bytes.Buffer
	p, err := measure(s, rng, newTracer(), &buf)
	if err != nil {
		return p, 0, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return p, 0, err
	}
	total, err := prof.fold(acc)
	return p, total, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over passes.
func medianOf(ps []passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = f(&ps[i])
	}
	return median(xs)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// simMetrics derives the simulated per-layer counters from summed totals.
func simMetrics(s simTotals) []metric {
	u := float64(s.committed)
	return []metric{
		{"core.issued_per_uop", stats.Div(float64(s.issued), u)},
		{"core.fetched_per_uop", stats.Div(float64(s.fetched), u)},
		{"core.squashed_per_uop", stats.Div(float64(s.squashed), u)},
		{"core.fe_gated_frac", stats.Div(float64(s.feGated), float64(s.cycles))},
		{"core.mem_stall_frac", stats.Div(float64(s.memStall), float64(s.cycles))},
		{"core.warped_cycle_frac", stats.Div(float64(s.warped), float64(s.simulated))},
		{"bpred.mispredicts_pki", 1000 * stats.Div(float64(s.mispredicts), u)},
		{"core.runahead.intervals_pki", 1000 * stats.Div(float64(s.raIntervals), u)},
		{"core.runahead.uops_per_uop", stats.Div(float64(s.raUops), u)},
		{"core.runahead.misses_per_kuop", 1000 * stats.Div(float64(s.raMisses), float64(s.raUops))},
		{"core.runahead.chain_gen_fail_frac", stats.Div(float64(s.chainFails), float64(s.chainSearches))},
		{"core.runahead.chain_cache_hit_frac", stats.Div(float64(s.ccHits), float64(s.ccHits+s.ccMisses))},
		{"cache.llc_mpki", 1000 * stats.Div(float64(s.llcMisses), u)},
		{"dram.requests_pki", 1000 * stats.Div(float64(s.dramReqs), u)},
		{"dram.row_hit_frac", stats.Div(float64(s.rowHits), float64(s.rowAccesses))},
		{"dram.avg_latency_cycles", stats.Div(float64(s.latSum), float64(s.latCount))},
		{"dram.rejects_pki", 1000 * stats.Div(float64(s.dramRejects), u)},
	}
}
