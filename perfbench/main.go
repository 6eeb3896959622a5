// Command perfbench is the repository's benchmark: it measures the host
// cost of simulating each committed uop on four workloads, checks the
// simulated outputs, and attributes host time to simulator layers.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload runahead-mem --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics.
// See README.md for the workloads, the metrics and the noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"runaheadsim/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"runahead-mem", "baseline-mem", "sweep-sampled", "mix-4core"}

func newSuite(name, dir string) (suite, error) {
	switch name {
	case "runahead-mem":
		return newSingleSuite(core.ModeTraditional, core.ModeBuffer, core.ModeBufferCC), nil
	case "baseline-mem":
		return newSingleSuite(core.ModeNone), nil
	case "sweep-sampled":
		return &sweepSuite{dir: dir}, nil
	case "mix-4core":
		return &mixSuite{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// metric is one reported value; its unit comes from the declared tables
// in metrics.go.
type metric struct {
	name  string
	value float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: one of runahead-mem, baseline-mem, sweep-sampled, mix-4core")
	seed := fs.Int64("seed", 1, "seed for the order in which each pass runs its cells")
	seconds := fs.Float64("seconds", 20, "how long to keep starting timed passes")
	trace := fs.Int("trace", 0, "1 adds traced passes and prints the per-layer metrics instead of the end-to-end ones")
	dir := fs.String("dir", "perfbench", "the benchmark's directory, which holds the sweep reference")
	root := fs.String("root", ".", "the repository checkout, for the host block's commit")
	sweepRefMode := fs.String("sweep-ref", "", `"check" re-runs the sweep-sampled full-detail reference and fails if it differs; "write" regenerates it`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sweepRefMode != "" {
		if *sweepRefMode != "check" && *sweepRefMode != "write" {
			fmt.Fprintf(stderr, "perfbench: -sweep-ref must be check or write, not %q\n", *sweepRefMode)
			return 2
		}
		if err := sweepReference(*dir, *sweepRefMode == "write"); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "sweep reference %s: ok\n", *sweepRefMode)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	s, err := newSuite(*wl, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	host, err := json.Marshal(map[string]hostInfo{"host": describeHost(*root)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", host)

	res, err := benchmark(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := res.marshal(*trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is everything one invocation measured.
type result struct {
	attempted, failed int
	metrics           []metric
}

// benchmark prepares the workload, runs the oracle pass, then runs timed
// passes until budget has elapsed, and derives the metrics. Traced
// invocations alternate untraced and traced passes, so the tracing overhead
// is measured within one process.
func benchmark(s suite, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	t0 := time.Now()
	if err := s.prepare(); err != nil {
		return nil, err
	}
	build := time.Since(t0)

	res := &result{}
	ref := map[string]string{}
	for _, c := range s.check() {
		res.attempted++
		if c.err != nil {
			res.failed++
			fmt.Fprintf(log, "cell %s FAILED under the oracle: %v\n", c.name, c.err)
			continue
		}
		if c.digest != "" {
			ref[c.name] = c.digest
		}
	}

	rng := rand.New(rand.NewSource(seed))
	layerNs := map[string]int64{}
	var layerTotal int64
	var plain, tracedPasses []passResult
	start := time.Now()
	for i := 0; ; i++ {
		var p passResult
		if traced && i%2 == 1 {
			var cpu int64
			var err error
			p, cpu, err = profiled(s, rng, layerNs)
			if err != nil {
				return nil, err
			}
			layerTotal += cpu
			tracedPasses = append(tracedPasses, p)
		} else {
			var err error
			if p, err = measure(s, rng, nil, nil); err != nil {
				return nil, err
			}
			plain = append(plain, p)
		}
		for j := range p.cells {
			c := &p.cells[j]
			res.attempted++
			if _, ok := ref[c.name]; !ok && c.err == nil {
				ref[c.name] = c.digest // the oracle pass gave no comparable digest
			}
			if c.err == nil && c.digest != ref[c.name] {
				c.err = fmt.Errorf("digest %s differs from the reference %s", c.digest, ref[c.name])
			}
			if c.err != nil {
				res.failed++
				fmt.Fprintf(log, "cell %s FAILED in pass %d: %v\n", c.name, i, c.err)
			}
		}
		if time.Since(start) >= budget && (!traced || len(tracedPasses) > 0) {
			break
		}
	}
	for _, c := range plain[0].cells {
		fmt.Fprintf(log, "cell %s digest %s\n", c.name, ref[c.name])
	}
	fmt.Fprintf(log, "timed passes: %d untraced, %d traced; failed cells: %d of %d\n",
		len(plain), len(tracedPasses), res.failed, res.attempted)
	if res.failed > 0 {
		return res, nil
	}

	var sim simTotals
	for _, c := range plain[0].cells {
		sim.merge(c.sim)
	}
	if !traced {
		_, parallel := s.(*sweepSuite)
		res.metrics = endToEnd(plain, build, sim, parallel)
		return res, nil
	}
	if layerTotal == 0 {
		return nil, errors.New("the CPU profile of the traced passes holds no samples")
	}
	_, cellRows := s.(*singleSuite)
	res.metrics = perLayer(plain, tracedPasses, layerNs, layerTotal, sim, res, cellRows)
	return res, nil
}

func endToEnd(ps []passResult, build time.Duration, sim simTotals, parallel bool) []metric {
	wall := medianOf(ps, func(p *passResult) float64 { return p.wall.Seconds() })
	if !parallel {
		// Cells run one after another, so the pass is the sum of its
		// cells; summing each cell's median discards a burst of host noise
		// that hit one cell in one pass.
		wall = 0
		for j := range ps[0].cells {
			wall += medianOf(ps, func(p *passResult) float64 { return p.cells[j].wall.Seconds() })
		}
	}
	uops, issued := ps[0].uops() // the same in every pass
	return []metric{
		{"setup_s", build.Seconds() + medianOf(ps, func(p *passResult) float64 { return p.setup.Seconds() })},
		{"wall_s", wall},
		{"host_ns_per_uop", wall * 1e9 / float64(uops)},
		{"host_ns_per_issued_uop", wall * 1e9 / float64(issued)},
		{"alloc_bytes_per_uop", medianOf(ps, func(p *passResult) float64 { return float64(p.allocBytes) }) / float64(uops)},
		{"max_rss_mb", maxRSSMB()},
		{"sim_ipc_geomean", geomean(sim.ipcs)},
	}
}

func perLayer(plain, traced []passResult, layerNs map[string]int64, layerTotal int64, sim simTotals, res *result, cellRows bool) []metric {
	var out []metric
	// Layer shares of the profile, scaled to the traced passes' wall time,
	// so that the layers sum exactly to trace.host_ns_per_uop.
	var tracedNs float64
	var tracedUops uint64
	for _, p := range traced {
		tracedNs += float64((p.setup + p.wall).Nanoseconds())
		u, _ := p.uops()
		tracedUops += u
	}
	perUop := tracedNs / float64(tracedUops)
	var attributed float64
	for _, l := range layerNames() {
		if l == layerUnattributed {
			continue
		}
		v := perUop * float64(layerNs[l]) / float64(layerTotal)
		attributed += v
		out = append(out, metric{l + ".host_ns_per_uop", v})
	}
	out = append(out, metric{layerUnattributed + ".host_ns_per_uop", perUop - attributed})

	total := func(p *passResult) float64 { return (p.setup + p.wall).Seconds() }
	untracedWall := medianOf(plain, total)
	tracedWall := medianOf(traced, total)
	out = append(out,
		metric{"trace.wall_s", tracedNs / float64(len(traced)) / 1e9},
		metric{"trace.host_ns_per_uop", perUop},
		metric{"trace.overhead_frac", (tracedWall - untracedWall) / untracedWall},
	)
	for _, sp := range spanNames {
		out = append(out, metric{sp, medianOf(traced, func(p *passResult) float64 { return p.spans[sp].Seconds() })})
	}
	out = append(out,
		metric{"harness.worker_busy_frac", medianOf(plain, func(p *passResult) float64 { return p.busyFrac })},
		metric{"harness.longest_cell_s", medianOf(plain, func(p *passResult) float64 { return p.longest.Seconds() })},
		metric{"runtime.gc_count", medianOf(plain, func(p *passResult) float64 { return float64(p.gcCount) })},
		metric{"runtime.gc_pause_s", medianOf(plain, func(p *passResult) float64 { return p.gcPause.Seconds() })},
		metric{"run_failure_rate", float64(res.failed) / float64(res.attempted)},
		// Full-detail workloads simulate every uop in detail; the sweep's
		// extra metrics override this.
		metric{"harness.detailed_uops_frac", 1},
	)
	out = append(out, simMetrics(sim)...)
	out = append(out, plain[0].extra...)
	if !cellRows {
		return out
	}

	// Per-cell host cost of the full-detail workloads, from the untraced
	// passes: the per-kernel ratio of ROADMAP item 2 reads straight off.
	for j, c := range plain[0].cells {
		wall := medianOf(plain, func(p *passResult) float64 { return float64(p.cells[j].wall.Nanoseconds()) })
		out = append(out,
			metric{"cell." + c.name + ".host_ns_per_uop", wall / float64(c.uops)},
			metric{"cell." + c.name + ".host_ns_per_issued_uop", wall / float64(c.issued)},
		)
	}
	return out
}

// marshal renders the result line with exactly the declared metrics of the
// chosen kind; a declared metric the workload does not exercise reads 0.
func (r *result) marshal(traced bool) ([]byte, error) {
	decl := endToEndMetrics
	if traced {
		decl = perLayerMetrics()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.failed == 0 {
		got := map[string]float64{}
		for _, m := range r.metrics {
			got[m.name] = m.value
		}
		for _, d := range decl {
			metrics[d.Name] = value{got[d.Name], d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}
