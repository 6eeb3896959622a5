package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"runaheadsim/internal/harness"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// sweepKernels span all three intensity classes (gcc low, zeusmp medium,
// the rest high) and five kernel families.
var sweepKernels = []string{"gcc", "zeusmp", "omnetpp", "sphinx3", "milc", "libquantum"}

// Sampling shape of sweep-sampled: each cell's measured region is
// sweepMeasure uops after the harness's class-dependent warmup; it is
// covered by sweepIntervals detailed windows of sweepWindow uops, each
// re-warmed for sweepIntervalWarmup uops from a functional checkpoint.
const (
	sweepMeasure        = 1_000_000
	sweepIntervals      = 4
	sweepWindow         = 10_000
	sweepIntervalWarmup = 20_000
)

// sweepWorkers bounds the cells simulated at once: one per CPU of the
// 2-CPU host the benchmark was sized on. Each cell runs its windows on one
// goroutine, beside its functional fast-forward.
var sweepWorkers = min(2, runtime.GOMAXPROCS(0))

// sweepRefFile holds the full-detail IPC and digest of every sweep cell
// over the same region; sampling error is measured against it.
const sweepRefFile = "sweep_ref.json"

type sweepRefCell struct {
	Cell   string  `json:"cell"`
	IPC    float64 `json:"ipc"`
	Digest string  `json:"digest"`
}

type sweepRef struct {
	MeasureUops uint64         `json:"measure_uops"`
	Cells       []sweepRefCell `json:"cells"`
}

type sweepSuite struct {
	dir string
	ref map[string]float64 // cell -> full-detail IPC
}

func sweepOptions(check bool, mon harness.Monitor) harness.Options {
	return harness.Options{
		MeasureUops: sweepMeasure,
		Benchmarks:  sweepKernels,
		Check:       check,
		Monitor:     mon,
		Sample: &harness.SampleOptions{
			Mode:       harness.SampleEven,
			Intervals:  sweepIntervals,
			WarmupUops: sweepIntervalWarmup,
			WindowUops: sweepWindow,
			Workers:    1,
		},
	}
}

func (s *sweepSuite) prepare() error {
	for _, k := range sweepKernels {
		if _, err := workload.Load(k); err != nil {
			return err
		}
	}
	ref, err := readSweepRef(s.dir)
	if err != nil {
		return err
	}
	s.ref = map[string]float64{}
	for _, c := range ref.Cells {
		s.ref[c.Cell] = c.IPC
	}
	return nil
}

func readSweepRef(dir string) (*sweepRef, error) {
	data, err := os.ReadFile(dir + "/" + sweepRefFile)
	if err != nil {
		return nil, fmt.Errorf("sweep reference: %w", err)
	}
	var ref sweepRef
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("sweep reference: %w", err)
	}
	if ref.MeasureUops != sweepMeasure {
		return nil, fmt.Errorf("sweep reference measures %d uops, the workload %d: regenerate it with -sweep-ref write",
			ref.MeasureUops, sweepMeasure)
	}
	return &ref, nil
}

// sweepRuns lists the figure9 cells in the harness's own order.
func sweepRuns(r *harness.Runner) []harness.PlannedRun {
	return r.Plan(func(r *harness.Runner) { harness.Figure9(r) })
}

// runSweep simulates every planned cell on a pool of sweepWorkers
// goroutines. Unlike Runner.Prewarm, a cell that panics is recorded as a
// failed cell instead of ending the process.
func runSweep(r *harness.Runner, runs []harness.PlannedRun, order []int) ([]cellResult, []*harness.Result, time.Duration) {
	cells := make([]cellResult, len(runs))
	results := make([]*harness.Result, len(runs))
	work := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var busy time.Duration
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				cells[i], results[i] = runSweepCell(r, runs[i])
				cells[i].wall = time.Since(t0)
				mu.Lock()
				busy += cells[i].wall
				mu.Unlock()
			}
		}()
	}
	for _, i := range order {
		work <- i
	}
	close(work)
	wg.Wait()
	return cells, results, busy
}

func runSweepCell(r *harness.Runner, run harness.PlannedRun) (res cellResult, out *harness.Result) {
	res.name = cellName(run.Bench, run.Config.Mode)
	defer guard(&res)
	out = r.Result(run.Bench, run.Config)
	st := out.Stats
	res.digest = digestOf(st)
	res.sim.addStats(st)
	if out.Sampling == nil {
		return res, out // a full-detail reference run
	}
	// Committed uops of detailed simulation, window warmups included;
	// issued uops scale the measured windows' issue rate to that span.
	res.uops = out.Sampling.DetailedUops
	res.issued = uint64(math.Round(float64(st.Issued) * stats.Div(float64(res.uops), float64(st.Committed))))
	res.sim.llcMisses = uint64(math.Round(out.MPKI * float64(st.Committed) / 1000))
	res.sim.dramReqs = out.DRAMRequests
	return res, out
}

func (s *sweepSuite) check() []cellResult {
	r := harness.NewRunner(sweepOptions(true, nil))
	runs := sweepRuns(r)
	cells, _, _ := runSweep(r, runs, identity(len(runs)))
	return cells
}

func (s *sweepSuite) pass(rng *rand.Rand, tr *tracer) passResult {
	var mon harness.Monitor // a nil *phaseMonitor would not compare equal to nil
	if tr != nil {
		mon = newPhaseMonitor(tr)
	}
	t0 := time.Now()
	r := harness.NewRunner(sweepOptions(false, mon))
	runs := sweepRuns(r)
	tr.span("span.plan_s", t0)
	p := passResult{setup: time.Since(t0)}

	t1 := time.Now()
	cells, results, busy := runSweep(r, runs, rng.Perm(len(runs)))
	table := harness.Figure9(r)
	p.wall = time.Since(t1)
	p.cells = cells
	p.busyFrac = stats.Div(float64(busy), float64(p.wall)*float64(sweepWorkers))
	for _, c := range cells {
		p.longest = max(p.longest, c.wall)
	}

	// Sampling error of every cell against its full-detail reference.
	var errMax, errSum, detailed, region float64
	for i, res := range results {
		if res == nil {
			continue
		}
		full, ok := s.ref[cells[i].name]
		if !ok || full == 0 {
			cells[i].err = fmt.Errorf("cell %s has no full-detail reference", cells[i].name)
			continue
		}
		e := 100 * math.Abs(res.IPC-full) / full
		errMax = max(errMax, e)
		errSum += e
		detailed += float64(res.Sampling.DetailedUops)
		spec, _ := workload.SpecOf(res.Bench)
		region += float64(classWarmup(spec.Class) + sweepMeasure)
	}
	if len(table.Rows) != len(sweepKernels)+1 {
		cells[0].err = fmt.Errorf("figure9 rendered %d rows, want %d", len(table.Rows), len(sweepKernels)+1)
	}
	p.extra = []metric{
		{"ipc_err_max_pct", errMax},
		{"ipc_err_mean_pct", stats.Div(errSum, float64(len(results)))},
		{"harness.detailed_uops_frac", stats.Div(detailed, region)},
	}
	return p
}

// classWarmup mirrors the harness's automatic full-run warmup, which sets
// where each cell's measured region starts.
func classWarmup(c workload.Class) uint64 {
	if c == workload.Low {
		return 500_000
	}
	return 100_000
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sweepReference runs every sweep cell in full detail over the same region
// as the sampled runs. With write set it rewrites the reference file;
// otherwise it fails when the committed file differs from the fresh run.
func sweepReference(dir string, write bool) error {
	o := sweepOptions(false, nil)
	o.Sample = nil
	r := harness.NewRunner(o)
	runs := sweepRuns(r)
	cells, results, _ := runSweep(r, runs, identity(len(runs)))
	fresh := sweepRef{MeasureUops: sweepMeasure}
	for i, c := range cells {
		if c.err != nil {
			return fmt.Errorf("cell %s: %w", c.name, c.err)
		}
		fresh.Cells = append(fresh.Cells, sweepRefCell{Cell: c.name, IPC: results[i].IPC, Digest: c.digest})
	}
	data, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := dir + "/" + sweepRefFile
	if write {
		return os.WriteFile(path, data, 0o644)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sweep reference: %w", err)
	}
	if string(old) != string(data) {
		return fmt.Errorf("sweep reference %s differs from a fresh full-detail run; regenerate it with -sweep-ref write", path)
	}
	return nil
}

// phaseMonitor turns the harness's phase reports into spans: each
// (cell, interval) unit's time in a phase is charged to that phase's span
// when the unit enters its next phase or finishes.
type phaseMonitor struct {
	tr   *tracer
	mu   sync.Mutex
	open map[phaseUnit]openPhase
}

type phaseUnit struct {
	bench, config string
	interval      int
}

type openPhase struct {
	span  string
	start time.Time
}

func newPhaseMonitor(tr *tracer) *phaseMonitor {
	return &phaseMonitor{tr: tr, open: map[phaseUnit]openPhase{}}
}

// phaseSpans names the span of each harness phase in a sampled run.
var phaseSpans = map[string]string{
	"fast-forward": "span.fastforward_s",
	"warmup":       "span.interval_warmup_s",
	"measure":      "span.interval_measure_s",
}

func (m *phaseMonitor) RunStart(bench, config string)                            {}
func (m *phaseMonitor) RunDone(bench, config string)                             {}
func (m *phaseMonitor) Progress(bench, config string, interval int, done uint64) {}

func (m *phaseMonitor) Phase(bench, config string, interval int, phase string, total uint64) {
	u := phaseUnit{bench, config, interval}
	m.close(u)
	if span, ok := phaseSpans[phase]; ok {
		m.mu.Lock()
		m.open[u] = openPhase{span, time.Now()}
		m.mu.Unlock()
	}
}

func (m *phaseMonitor) Done(bench, config string, interval int) {
	m.close(phaseUnit{bench, config, interval})
}

func (m *phaseMonitor) close(u phaseUnit) {
	m.mu.Lock()
	op, ok := m.open[u]
	delete(m.open, u)
	m.mu.Unlock()
	if ok {
		m.tr.span(op.span, op.start)
	}
}
