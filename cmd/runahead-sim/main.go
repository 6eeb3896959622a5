// Command runahead-sim runs one benchmark under one runahead configuration
// and prints the headline metrics (plus, optionally, every raw counter).
//
// Examples:
//
//	runahead-sim -bench mcf -mode hybrid
//	runahead-sim -bench sphinx3 -mode runahead-buffer+cc -pf -uops 300000
//	runahead-sim -bench mcf -all-modes
//	runahead-sim -bench mcf -trace 2000 -trace-format chrome -trace-out mcf.json
//	runahead-sim -bench mcf -mode hybrid -checkpoint-out mcf.rsnp
//	runahead-sim -bench mcf -mode hybrid -restore mcf.rsnp
//	runahead-sim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"runaheadsim"
	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/telemetry"
	"runaheadsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// modeNames renders the -mode choices from the core's mode table.
func modeNames() string {
	var names []string
	for m := core.ModeNone; m <= core.ModeAdaptive; m++ {
		names = append(names, m.String())
	}
	return strings.Join(names, " | ")
}

func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("runahead-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("bench", "mcf", "benchmark name (see -list)")
		mode   = fs.String("mode", "baseline", modeNames())
		pf     = fs.Bool("pf", false, "enable the stream prefetcher")
		enh    = fs.Bool("enh", false, "enable the runahead efficiency enhancements")
		uops   = fs.Uint64("uops", 150_000, "measured micro-ops")
		warmup = fs.Uint64("warmup", 0, "warmup micro-ops (0 = automatic)")
		dump   = fs.Bool("stats", false, "dump raw counters")
		chains = fs.Bool("dumpchains", false, "print the dependence chains left in the chain cache")
		trCyc  = fs.Int64("trace", 0, "emit a cycle-by-cycle pipeline trace for the first N cycles")
		trFmt  = fs.String("trace-format", "", "trace format: text | jsonl | chrome (implies -trace 10000 when -trace is unset)")
		trOut  = fs.String("trace-out", "", "write the trace to this file (default stdout)")
		tlEach = fs.Int64("timeline", 0, "sample IPC/occupancy/mode every N cycles and export the timeline")
		tlOut  = fs.String("timeline-out", "", "write the timeline to this file (default stdout)")
		tlFmt  = fs.String("timeline-format", "csv", "timeline format: csv | json")
		check  = fs.Bool("check", simcheck.TagEnabled, "run the simcheck sanitizer (lockstep oracle + structural invariants)")
		ckOut  = fs.String("checkpoint-out", "", "simulate warmup+uops, drain, and write a machine snapshot to this file")
		restr  = fs.String("restore", "", "restore a machine snapshot (same -bench/-mode flags) and simulate -uops more micro-ops")
		list   = fs.Bool("list", false, "list benchmarks and exit")
		all    = fs.Bool("all-modes", false, "run every runahead mode on the benchmark and print a comparison")
		pipe   = fs.Bool("pipeline", false, "print the Figure 6 pipeline diagram and exit")
		disasm = fs.Bool("disasm", false, "print the benchmark's program listing and exit")
		showEn = fs.Bool("energy", false, "print the energy breakdown by component")
		tele   = fs.String("telemetry-addr", "", "serve /metrics, /progress, /healthz and pprof on this address (e.g. 127.0.0.1:8080)")
		wdog   = fs.Int64("watchdog", 0, "override the deadlock watchdog: no-progress cycle budget (<0 disables, 0 = default)")
		fdump  = fs.String("flight-dump", ".", "directory for flight-recorder crash dumps (empty disables)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	// A dying simulation panics with full context (watchdog trips, simcheck
	// violations); by then the flight recorder has already been dumped.
	// Surface it as a clean fatal error instead of a raw Go traceback.
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(stderr, "runahead-sim: fatal: %v\n", rec)
			code = 2
		}
	}()

	opts := harness.Options{MeasureUops: *uops, WarmupUops: *warmup, Check: *check,
		WatchdogCycles: *wdog, FlightDumpDir: *fdump}
	if *tele != "" {
		tracker := telemetry.NewTracker()
		srv, err := telemetry.Start(*tele, nil, tracker)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: http://%s/metrics /progress /healthz /debug/pprof/\n", srv.Addr())
		opts.Monitor = tracker
	}

	rcfg := runaheadsim.Config{
		Benchmark:        *bench,
		Mode:             runaheadsim.Mode(*mode),
		Prefetcher:       *pf,
		Enhancements:     *enh,
		MeasureUops:      *uops,
		WarmupUops:       *warmup,
		TimelineInterval: *tlEach,
		Check:            *check,
		WatchdogCycles:   *wdog,
		FlightDumpDir:    *fdump,
		Monitor:          opts.Monitor,
	}
	switch {
	case *list:
		for _, n := range runaheadsim.Benchmarks() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	case *pipe:
		fmt.Fprint(stdout, pipelineDiagram)
		return 0
	case *all:
		return compareModes(rcfg, stdout, stderr)
	case *disasm:
		p, err := workload.Load(*bench)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, prog.Disasm(p))
		return 0
	case *ckOut != "" || *restr != "" || *trCyc > 0 || *trFmt != "" || *trOut != "":
		m, err := newMachine(opts, *bench, *mode, *enh, *pf, stdout)
		switch {
		case err != nil:
		case *ckOut != "":
			err = m.checkpoint(*ckOut)
		case *restr != "":
			err = m.restore(*restr)
		default:
			err = m.trace(*trCyc, *trFmt, *trOut)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	res, err := runaheadsim.Run(rcfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	w := stdout
	fmt.Fprintf(w, "benchmark          %s\n", res.Benchmark)
	fmt.Fprintf(w, "mode               %s (prefetcher=%v)\n", res.Mode, *pf)
	fmt.Fprintf(w, "committed uops     %d in %d cycles\n", res.Committed, res.Cycles)
	fmt.Fprintf(w, "IPC                %.3f (%+.1f%% vs no-PF baseline)\n", res.IPC, res.IPCDeltaPct)
	fmt.Fprintf(w, "MPKI               %.1f\n", res.MPKI)
	fmt.Fprintf(w, "memory stall       %.1f%% of cycles\n", res.MemStallPct)
	fmt.Fprintf(w, "energy             %.1f uJ (%+.1f%% vs baseline)\n", res.EnergyUJ, res.EnergyDeltaPct)
	fmt.Fprintf(w, "DRAM requests      %d (%+.1f%% vs baseline)\n", res.DRAMRequests, res.TrafficDeltaPct)
	if res.RunaheadIntervals > 0 {
		fmt.Fprintf(w, "runahead           %d intervals, %.1f misses/interval\n",
			res.RunaheadIntervals, res.MissesPerInterval)
		if res.RunaheadBufferCycles > 0 {
			fmt.Fprintf(w, "buffer cycles      %d (%.1f%% of run)\n", res.RunaheadBufferCycles,
				100*float64(res.RunaheadBufferCycles)/float64(res.Cycles))
		}
		if res.ChainCacheHitRate > 0 {
			fmt.Fprintf(w, "chain cache        %.1f%% hit rate\n", 100*res.ChainCacheHitRate)
		}
	}
	if *showEn {
		fmt.Fprintln(w)
		for _, comp := range res.EnergyBreakdown.Components() {
			fmt.Fprintf(w, "energy %-28s %10.2f uJ (%4.1f%%)\n", comp.Name, comp.UJ, 100*comp.UJ/res.EnergyUJ)
		}
	}
	if *chains {
		for _, ch := range res.Chains {
			fmt.Fprintf(w, "\n%s", ch)
		}
		if len(res.Chains) == 0 {
			fmt.Fprintln(w, "\n(no chains cached; use a runahead-buffer mode)")
		}
	}
	if *dump {
		fmt.Fprintf(w, "\n%s", res.Stats.Counters())
	}
	if res.Timeline != nil {
		if err := writeTimeline(res.Timeline, *tlFmt, *tlOut, w); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// writeTimeline exports the interval samples as CSV or JSON, to a file or
// stdout.
func writeTimeline(tl *stats.Timeline, format, out string, stdout io.Writer) error {
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	} else {
		fmt.Fprintln(w)
	}
	switch format {
	case "", "csv":
		return tl.WriteCSV(w)
	case "json":
		return tl.WriteJSON(w)
	default:
		return fmt.Errorf("unknown timeline format %q (have csv, json)", format)
	}
}

// pipelineDiagram is Figure 6: the out-of-order pipeline with the additions
// traditional runahead needs (+) and the further runahead buffer additions
// (*).
const pipelineDiagram = `Figure 6 — the runahead buffer pipeline:

  Fetch -> Decode -> Rename -------> Select/ -> Register -> Execute --> Commit
                       ^             Wakeup     Read(+)     (+)
                       |                        poison      checkpointing,
             Runahead  |                        bits        runahead cache
             Buffer(*) |
                       |
        filled by dependence chain generation(*)
        from the ROB: PC CAM + dest-reg CAM + store-queue CAM (Algorithm 1),
        cached in the 2-entry chain cache(*)

  (+) needed for traditional runahead   (*) added for the runahead buffer
`

// compareModes runs cfg under every runahead mode (with the enhancements on
// the hybrids, as the paper's systems have them) on one shared runner, so
// the baseline behind every row's deltas is simulated once, and prints each
// system's row as soon as its run finishes.
func compareModes(cfg runaheadsim.Config, stdout, stderr io.Writer) int {
	var cfgs []runaheadsim.Config
	for _, m := range runaheadsim.Modes() {
		cfg.Mode = m
		cfg.Enhancements = m == runaheadsim.ModeHybrid || m == runaheadsim.ModeAdaptiveHybrid
		cfgs = append(cfgs, cfg)
	}
	fmt.Fprintf(stdout, "%-22s %8s %10s %13s %11s %10s\n",
		"system", "IPC", "IPC gain", "energy diff", "DRAM diff", "intervals")
	err := runaheadsim.RunAll(cfgs, func(res runaheadsim.Result) error {
		fmt.Fprintf(stdout, "%-22s %8.3f %9.1f%% %12.1f%% %10.1f%% %10d\n",
			string(res.Mode), res.IPC, res.IPCDeltaPct, res.EnergyDeltaPct, res.TrafficDeltaPct, res.RunaheadIntervals)
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
