package main

import (
	"fmt"
	"math/rand"
	"time"

	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/multicore"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// mixKernels run one per core on a 4-core cluster sharing the LLC and DRAM.
var mixKernels = []string{"mcf", "milc", "omnetpp", "libquantum"}

// Per-core run lengths of the mix: every core warms for mixWarmup committed
// uops, then the cluster runs until each core has committed mixQuota.
const (
	mixWarmup = 30_000
	mixQuota  = 30_000
)

// mixConfigs are the two systems the mix compares, as harness.RunMix names
// them, in the order of the _base and _rb metrics.
var mixConfigs = []harness.RunConfig{harness.Baseline, harness.Buffer}

// mixSuite times multicore.Cluster runs directly and takes weighted speedup
// as harness.RunMix defines it: its alone-IPC references come from the
// harness in the check pass.
type mixSuite struct {
	progs []*prog.Program
	// ref holds harness.RunMix's result per config, from the check pass.
	ref []*harness.MixResult
}

func (s *mixSuite) prepare() error {
	s.progs = make([]*prog.Program, len(mixKernels))
	for i, k := range mixKernels {
		p, err := workload.Load(k)
		if err != nil {
			return err
		}
		s.progs[i] = p
	}
	return nil
}

// check runs harness.RunMix with the oracle attached to every core, and to
// the alone runs its weighted speedup divides by. Timed runs must then
// reproduce the harness's weighted speedup and max slowdown exactly; their
// digests are compared with the first timed pass's.
func (s *mixSuite) check() []cellResult {
	out := make([]cellResult, len(mixConfigs))
	s.ref = make([]*harness.MixResult, len(mixConfigs))
	r := harness.NewRunner(harness.Options{MeasureUops: mixQuota, WarmupUops: mixWarmup, Check: true})
	for i, rc := range mixConfigs {
		out[i].name = cellName("mix4", rc.Mode)
		func() {
			defer guard(&out[i])
			s.ref[i] = r.RunMix(mixKernels, rc)
		}()
	}
	return out
}

func (s *mixSuite) pass(rng *rand.Rand, tr *tracer) passResult {
	p := passResult{cells: make([]cellResult, len(mixConfigs))}
	ws := make([]float64, len(mixConfigs))
	maxSd := make([]float64, len(mixConfigs))
	var arbWait, arbGrants uint64
	for _, i := range rng.Perm(len(mixConfigs)) {
		r := s.runMix(mixConfigs[i], tr)
		p.setup += r.setup
		p.wall += r.wall
		if r.err == nil && s.ref[i] != nil {
			ws[i], maxSd[i], r.err = s.score(i, r.finish)
		}
		arbWait += r.arbWait
		arbGrants += r.arbGrants
		p.cells[i] = r.cellResult
	}
	p.extra = []metric{
		{"weighted_speedup_base", ws[0]},
		{"weighted_speedup_rb", ws[1]},
		{"multicore.max_slowdown_base", maxSd[0]},
		{"multicore.max_slowdown_rb", maxSd[1]},
		{"multicore.llc_arb_wait_avg_cycles", stats.Div(float64(arbWait), float64(arbGrants))},
	}
	return p
}

// score computes weighted speedup and max slowdown of one timed mix run the
// way harness.RunMix does, and requires both to equal the harness's own
// result from the check pass.
func (s *mixSuite) score(i int, finish []int64) (ws, maxSd float64, err error) {
	ref := s.ref[i]
	for c, f := range finish {
		shared := stats.Div(float64(mixQuota), float64(f))
		sd := stats.Div(ref.Cores[c].IPCAlone, shared)
		ws += stats.Div(shared, ref.Cores[c].IPCAlone)
		if sd > maxSd {
			maxSd = sd
		}
	}
	if ws != ref.WeightedSpeedup || maxSd != ref.MaxSlowdown {
		err = fmt.Errorf("mix %s: weighted speedup %v / max slowdown %v, harness.RunMix gives %v / %v",
			mixConfigs[i].Label(), ws, maxSd, ref.WeightedSpeedup, ref.MaxSlowdown)
	}
	return ws, maxSd, err
}

type mixRun struct {
	cellResult
	finish             []int64
	arbWait, arbGrants uint64
}

func (s *mixSuite) runMix(rc harness.RunConfig, tr *tracer) (res mixRun) {
	res.name = cellName("mix4", rc.Mode)
	defer guard(&res.cellResult)
	t0 := time.Now()
	cfg := core.DefaultConfig()
	cfg.Mode = rc.Mode
	cl := multicore.New(cfg, s.progs)
	tr.span("span.new_s", t0)
	res.setup = time.Since(t0)
	t1 := time.Now()
	warm := cl.Run(mixWarmup)
	tr.span("span.warmup_s", t1)
	for _, st := range warm {
		res.uops += st.Committed
		res.issued += st.Issued
	}
	cl.ResetStats()
	t2 := time.Now()
	sts := cl.Run(mixQuota)
	tr.span("span.measure_s", t2)
	res.wall = time.Since(t1)
	if err := cl.CheckInvariants(false); err != nil {
		res.err = err
		return res
	}

	res.digest = digestOf(sts...)
	h := cl.Hierarchy()
	for i, st := range sts {
		res.uops += st.Committed
		res.issued += st.Issued
		res.sim.addStats(st)
		res.finish = append(res.finish, cl.FinishCycle(i))
		rs := h.Req(i)
		res.arbWait += rs.LLCArbWaitCycles
		res.arbGrants += rs.LLCArbGrants
	}
	res.sim.addMemory(h)
	_, skipped := cl.WarpStats()
	res.sim.warped, res.sim.simulated = skipped, cl.Now()
	return res
}
