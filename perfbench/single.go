package main

import (
	"math/rand"
	"strings"
	"time"

	"runaheadsim/internal/core"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/workload"
)

// memKernels are the memory-bound kernels of the full-detail workloads:
// mcf, milc and libquantum carry ROADMAP item 2's per-kernel target, and
// omnetpp and sphinx3 are the paper's outliers, where runahead inflates
// DRAM traffic.
var memKernels = []string{"mcf", "milc", "libquantum", "omnetpp", "sphinx3"}

// Run lengths of one full-detail cell. Every cell starts cold, warms for
// singleWarmup committed uops, then measures singleMeasure.
const (
	singleWarmup  = 100_000
	singleMeasure = 100_000
)

// modeName is a mode's name as it appears in metric names, which may not
// contain "+".
func modeName(m core.Mode) string { return strings.ReplaceAll(m.String(), "+", "-") }

// cellName names a kernel run under a mode, as in "mcf.runahead-buffer".
func cellName(kernel string, m core.Mode) string { return kernel + "." + modeName(m) }

type singleCell struct {
	kernel string
	mode   core.Mode
}

// singleSuite runs each cell on one full-detail core, one cell at a time.
type singleSuite struct{ cells []singleCell }

func newSingleSuite(modes ...core.Mode) *singleSuite {
	s := &singleSuite{}
	for _, k := range memKernels {
		for _, m := range modes {
			s.cells = append(s.cells, singleCell{k, m})
		}
	}
	return s
}

func (s *singleSuite) prepare() error {
	for _, k := range memKernels {
		if _, err := workload.Load(k); err != nil {
			return err
		}
	}
	return nil
}

func (s *singleSuite) check() []cellResult {
	out := make([]cellResult, len(s.cells))
	for i, c := range s.cells {
		out[i] = runSingle(c, true, nil)
	}
	return out
}

func (s *singleSuite) pass(rng *rand.Rand, tr *tracer) passResult {
	p := passResult{cells: make([]cellResult, len(s.cells))}
	for _, i := range rng.Perm(len(s.cells)) {
		r := runSingle(s.cells[i], false, tr)
		p.setup += r.setup
		p.wall += r.wall
		p.cells[i] = r
	}
	return p
}

// runSingle simulates one cell: build, warm up, reset statistics, measure.
func runSingle(cell singleCell, check bool, tr *tracer) (res cellResult) {
	res.name = cellName(cell.kernel, cell.mode)
	defer guard(&res)
	t0 := time.Now()
	p, err := workload.Load(cell.kernel)
	if err != nil {
		res.err = err
		return res
	}
	tr.span("span.load_s", t0)
	t1 := time.Now()
	cfg := core.DefaultConfig()
	cfg.Mode = cell.mode
	c := core.New(cfg, p)
	tr.span("span.new_s", t1)
	res.setup = time.Since(t0)

	var chk *simcheck.Checker
	if check {
		chk = simcheck.Attach(c, p, simcheck.Options{})
	}
	t2 := time.Now()
	warm := c.Run(singleWarmup)
	tr.span("span.warmup_s", t2)
	wUops, wIssued := warm.Committed, warm.Issued
	c.ResetStats()
	t3 := time.Now()
	st := c.Run(singleMeasure)
	tr.span("span.measure_s", t3)
	res.wall = time.Since(t2)
	if chk != nil {
		chk.Finish()
	}

	res.uops = wUops + st.Committed
	res.issued = wIssued + st.Issued
	res.digest = digestOf(st)
	res.sim.addStats(st)
	res.sim.addMemory(c.Hierarchy())
	_, skipped := c.WarpStats()
	res.sim.warped, res.sim.simulated = skipped, c.Now()
	return res
}
