package main

// The paths that drive a harness.Session directly: -checkpoint-out runs a
// benchmark, drains the machine to quiescence, and serializes it; -restore
// rebuilds the machine from those bytes and keeps simulating (the printed
// stats digest lets a script verify restore fidelity against an
// uninterrupted run); -trace steps a fresh machine with a pipeline tracer
// attached.

import (
	"fmt"
	"io"
	"os"

	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

// machine is one benchmark under one configuration, as the flags name it.
type machine struct {
	opts        harness.Options
	bench, mode string
	rc          harness.RunConfig
	p           *prog.Program
	stdout      io.Writer
}

func newMachine(opts harness.Options, bench, mode string, enh, pf bool, stdout io.Writer) (machine, error) {
	cm, err := core.ParseMode(mode)
	if err != nil {
		return machine{}, err
	}
	p, err := workload.Load(bench)
	rc := harness.RunConfig{Mode: cm, Enhancements: enh, Prefetch: pf}
	return machine{opts: opts, bench: bench, mode: mode, rc: rc, p: p, stdout: stdout}, err
}

// checkpoint simulates warmup+uops micro-ops, drains, and writes the
// snapshot to file.
func (m machine) checkpoint(file string) error {
	s, err := harness.NewSession(m.opts, m.bench, m.rc, m.p, harness.Start{})
	if err != nil {
		return err
	}
	data, st, err := s.Checkpoint()
	if err == nil {
		err = os.WriteFile(file, data, 0o644)
	}
	if err != nil {
		return err
	}
	c := s.Core()
	fmt.Fprintf(m.stdout, "checkpoint          %s (%d bytes)\n", file, len(data))
	fmt.Fprintf(m.stdout, "benchmark           %s, mode %s\n", m.bench, m.mode)
	fmt.Fprintf(m.stdout, "committed uops      %d in %d cycles (drained)\n", st.Committed, c.Now())
	fmt.Fprintf(m.stdout, "resume pc           %#x\n", c.FetchPC())
	fmt.Fprintf(m.stdout, "stats digest        %#x\n", simcheck.StatsDigest(st))
	return nil
}

// restore rebuilds a machine from the snapshot in file and simulates uops
// more micro-ops from the restore point with fresh statistics.
func (m machine) restore(file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	s, err := harness.NewSession(m.opts, m.bench, m.rc, m.p, harness.FromSnapshot(data))
	if err != nil {
		return err
	}
	fmt.Fprintf(m.stdout, "restored            %s at cycle %d, pc %#x\n", file, s.Core().Now(), s.Core().FetchPC())
	st := s.Measure(0, m.opts.MeasureUops).Stats
	fmt.Fprintf(m.stdout, "benchmark           %s, mode %s\n", m.bench, m.mode)
	fmt.Fprintf(m.stdout, "committed uops      %d in %d cycles\n", st.Committed, st.Cycles)
	fmt.Fprintf(m.stdout, "IPC                 %.3f\n", st.IPC())
	fmt.Fprintf(m.stdout, "stats digest        %#x\n", simcheck.StatsDigest(st))
	return nil
}

// trace emits a cycle-by-cycle pipeline trace of the first cycles cycles
// (10,000 when unset) in the given format, to out or stdout.
func (m machine) trace(cycles int64, format, out string) error {
	if cycles <= 0 {
		cycles = 10_000
	}
	w := m.stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sink, err := trace.NewSink(format, w)
	if err != nil {
		return err
	}
	s, err := harness.NewSession(m.opts, m.bench, m.rc, m.p, harness.Start{})
	if err != nil {
		return err
	}
	return s.Trace(sink, cycles)
}
