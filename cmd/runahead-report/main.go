// Command runahead-report evaluates every headline quantitative claim of
// the paper against this reproduction and prints a verdict table: paper
// value, measured value, and whether the shape (sign, rough magnitude,
// ordering) reproduces. With -cores it appends the multi-programmed table:
// per-core IPC, weighted speedup, and slowdown fairness for an N-core mix
// sharing one LLC + DRAM, baseline vs runahead buffer.
//
// With -sample the detailed runs behind the verdicts are sampled instead of
// full-detail, and a table of per-metric 95% confidence intervals for the
// sampled estimates is appended.
//
// With -screen the runs are screened through the calibrated analytical twin
// (-twin points at the artifact): only promoted and out-of-domain pairs
// simulate in detail, the rest are twin predictions, and a provenance table
// naming each bench's tier rides along in both text and -json output.
//
//	runahead-report
//	runahead-report -uops 300000
//	runahead-report -sample
//	runahead-report -screen -twin twin_coeffs.json -json
//	runahead-report -cores 4
//	runahead-report -cores 2 -mix libquantum,mcf -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"runaheadsim/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runahead-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		uops     = fs.Uint64("uops", 150_000, "measured micro-ops per run")
		quiet    = fs.Bool("q", false, "suppress progress output")
		asJSON   = fs.Bool("json", false, "emit the verdict table as machine-readable JSON")
		cpiStack = fs.Bool("cpi", false, "also emit the CPI-stack breakdown table")
		cores    = fs.Int("cores", 0, "also emit the multi-programmed table for an N-core mix (0 = skip)")
		mix      = fs.String("mix", "", "kernel mix for -cores, one per core (empty = default memory-bound rotation)")

		useScreen = fs.Bool("screen", false, "screen runs through the calibrated analytical twin; only promoted pairs simulate in detail")
		twinPath  = fs.String("twin", "twin_coeffs.json", "calibrated twin artifact for -screen (from runahead-sweep -calibrate)")
		scTopK    = fs.Int("screen-topk", 3, "with -screen: promote the k largest twin-predicted RB-vs-baseline deltas")
		scUnc     = fs.Float64("screen-uncertain", 10, "with -screen: promote benches whose calibration MAPE exceeds this %")
	)
	sample := harness.RegisterSampleFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	opts := harness.Options{MeasureUops: *uops, Sample: sample.Options(0)}
	var members []string
	if *mix != "" {
		members = strings.Split(*mix, ",")
		if *cores > 0 && len(members) != *cores {
			fmt.Fprintf(stderr, "-mix names %d kernels but -cores is %d\n", len(members), *cores)
			return 2
		}
	} else if *cores > 0 {
		members = harness.DefaultMix(*cores)
	}
	if !*quiet {
		opts.Progress = func(bench, config string) {
			fmt.Fprintf(stderr, "running %-12s %s\n", bench, config)
		}
	}
	r := harness.NewRunner(opts)
	var sc *harness.Screen
	if *useScreen {
		model, err := harness.LoadTwin(*twinPath, *uops, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		plan := r.Plan(func(rr *harness.Runner) {
			harness.Report(rr)
			if *cpiStack {
				harness.CPIStack(rr)
			}
		})
		sc, err = harness.BuildScreen(r, plan, harness.ScreenOptions{
			Model: model, TopK: *scTopK, UncertainPct: *scUnc,
		}, runtime.NumCPU())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		r.SetScreen(sc)
	}
	tables := []harness.Table{harness.Report(r)}
	if opts.Sample != nil {
		tables = append(tables, harness.SamplingTable(r))
	}
	if *cpiStack {
		tables = append(tables, harness.CPIStack(r))
	}
	if sc != nil {
		tables = append(tables, sc.Table())
	}

	// The multi-programmed section renders as a table in text mode; in JSON
	// mode the mix results are emitted as their own objects with per-core
	// stats keyed by core ID, not flattened into table rows.
	var mixResults []*harness.MixResult
	if members != nil {
		for _, rc := range harness.MixConfigs() {
			mixResults = append(mixResults, r.RunMix(members, rc))
		}
		if !*asJSON {
			tables = append(tables, harness.MixTable(mixResults))
		}
	}

	for _, t := range tables {
		if *asJSON {
			if err := t.WriteJSON(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			continue
		}
		t.Render(stdout)
	}
	if *asJSON {
		for _, res := range mixResults {
			if err := json.NewEncoder(stdout).Encode(res); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}
