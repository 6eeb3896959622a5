package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

// Start names the point a Session's machine begins at. The zero Start is a
// fresh machine at the program's entry.
type Start struct {
	kind     uint8 // startFresh, startSnapshot or startArch
	snapshot []byte
	arch     prog.ArchState
}

const (
	startFresh uint8 = iota
	startSnapshot
	startArch
)

// FromSnapshot restores a drained machine from core.Core.Snapshot's bytes.
func FromSnapshot(data []byte) Start { return Start{kind: startSnapshot, snapshot: data} }

// FromArch starts a cold machine from a functional checkpoint
// (core.NewFromArch); ownership of its memory image passes to the machine.
func FromArch(st prog.ArchState) Start { return Start{kind: startArch, arch: st} }

// Session is the one place a single-core detailed machine is built and
// driven: full harness runs, sampled intervals, and runahead-sim's
// checkpoint, restore and trace paths. It reads its settings from Options —
// the watchdog override, the simcheck oracle (Check or the simcheck build
// tag), the flight-dump directory, the monitor and the timeline — so every
// caller gets the same machine for the same RunConfig. Each drive method
// dumps the flight recorder to Options.FlightDumpDir when the machine dies,
// then rethrows with the dump path appended.
type Session struct {
	opts     Options
	bench    string
	label    string
	interval int // sampled-interval id, or -1 for a whole run
	c        *core.Core
	chk      *simcheck.Checker
}

// Measurement is what a measured region leaves behind: its counters, the
// component activity the energy model prices, the memory-side totals, the
// chain cache's dependence chains, and (whole runs only, when
// Options.TimelineInterval is positive) the timeline.
type Measurement struct {
	Stats                   *core.Stats
	Activity                energy.Activity
	LLCMisses, DRAMRequests uint64
	Chains                  []string
	Timeline                *stats.Timeline
}

// NewSession builds bench's machine under rc, starting from the given point.
func NewSession(opts Options, bench string, rc RunConfig, p *prog.Program, from Start) (*Session, error) {
	s := &Session{opts: opts, bench: bench, label: rc.Label(), interval: -1}
	if err := s.build(rc, p, from); err != nil {
		return nil, err
	}
	return s, nil
}

// build constructs the machine and attaches the oracle matching its start:
// the lockstep oracle from the program's entry for a fresh machine, the
// resumed oracle (which adopts the machine's architectural state) otherwise.
func (s *Session) build(rc RunConfig, p *prog.Program, at Start) error {
	cfg := s.opts.machineConfig(rc)
	var err error
	switch at.kind {
	case startSnapshot:
		s.c, err = core.RestoreCore(at.snapshot, cfg, p)
	case startArch:
		s.c = core.NewFromArch(cfg, p, at.arch)
	default:
		s.c = core.New(cfg, p)
	}
	if err != nil || !(s.opts.Check || simcheck.TagEnabled) {
		return err
	}
	if at.kind != startFresh {
		s.chk = simcheck.AttachResumed(s.c, p, simcheck.Options{})
	} else {
		s.chk = simcheck.Attach(s.c, p, simcheck.Options{})
	}
	return nil
}

// machineConfig translates a RunConfig into the full core configuration
// with the watchdog override applied. Every machine the harness builds —
// sessions, multi-core mixes, the twin's fingerprint — is configured here.
func (o Options) machineConfig(rc RunConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = rc.Mode
	cfg.Enhancements = rc.Enhancements
	cfg.Mem.EnablePrefetch = rc.Prefetch
	cfg.DepTrack = rc.DepTrack
	if rc.MaxChain > 0 {
		cfg.MaxChainLength = rc.MaxChain
		cfg.RunaheadBufferSize = rc.MaxChain
	}
	if rc.CCEntries > 0 {
		cfg.ChainCacheEntries = rc.CCEntries
	}
	if rc.PFKind != "" {
		cfg.Mem.PrefetchKind = rc.PFKind
	}
	if wd := o.WatchdogCycles; wd > 0 {
		cfg.WatchdogCycles = wd
	} else if wd < 0 {
		cfg.WatchdogCycles = 0
	}
	return cfg
}

// Core returns the session's machine.
func (s *Session) Core() *core.Core { return s.c }

// Measure runs warmup committed uops, resets the statistics, and measures
// the next measure uops, reporting both phases to Options.Monitor. A whole
// run also records a timeline when Options.TimelineInterval is positive.
func (s *Session) Measure(warmup, measure uint64) Measurement {
	defer s.guard()
	var report func(uint64)
	if m := s.opts.Monitor; m != nil {
		defer m.Done(s.bench, s.label, s.interval)
		report = func(done uint64) { m.Progress(s.bench, s.label, s.interval, done) }
		m.Phase(s.bench, s.label, s.interval, "warmup", warmup)
	}
	chunkRun(s.c, warmup, report)
	s.c.ResetStats()
	var out Measurement
	if s.opts.TimelineInterval > 0 && s.interval < 0 {
		n := s.opts.TimelineSamples
		if n <= 0 {
			n = 4096
		}
		out.Timeline = stats.NewTimeline(s.opts.TimelineInterval, n)
		s.c.SetTimeline(out.Timeline)
	}
	if m := s.opts.Monitor; m != nil {
		m.Phase(s.bench, s.label, s.interval, "measure", measure)
	}
	out.Stats = chunkRun(s.c, measure, report)
	s.finish()
	out.Activity = energy.Measure(s.c)
	out.LLCMisses = s.c.Hierarchy().LLCDemandMisses
	out.DRAMRequests = s.c.Hierarchy().TotalDRAMRequests()
	for _, ch := range s.c.CachedChains() {
		out.Chains = append(out.Chains, ch.String())
	}
	return out
}

// Checkpoint runs a whole run's warmup plus Options.MeasureUops committed
// uops as one stretch with no statistics reset, drains the machine to
// quiescence, and returns its snapshot; the statistics then cover the whole
// stretch and the drain.
func (s *Session) Checkpoint() ([]byte, *core.Stats, error) {
	defer s.guard()
	spec, _ := workload.SpecOf(s.bench)
	s.c.Run(s.opts.warmup(spec.Class) + s.opts.MeasureUops)
	if err := s.c.Drain(); err != nil {
		return nil, nil, err
	}
	s.finish()
	data, err := s.c.Snapshot()
	return data, s.c.Stats(), err
}

// Trace steps the machine cycle by cycle up to the given cycle with sink
// attached, under the same watchdog as Run. The sink is closed even when the
// machine dies, so the events leading up to a crash survive.
func (s *Session) Trace(sink trace.Sink, cycles int64) (err error) {
	defer s.guard()
	defer func() {
		if cerr := s.c.CloseEventSink(); err == nil {
			err = cerr
		}
	}()
	s.c.SetEventSink(sink, cycles)
	for s.c.Now() < cycles {
		s.c.Cycle()
		s.c.WatchdogCheck()
	}
	s.finish()
	return nil
}

func (s *Session) finish() {
	if s.chk != nil {
		s.chk.Finish()
	}
}

// guard is deferred around every drive. When the machine dies it writes
// the flight recorder to Options.FlightDumpDir and rethrows with the dump
// path appended, turning an opaque panic into an attributable event trace;
// with no dump directory (or an empty ring) the panic passes through
// untouched.
func (s *Session) guard() {
	rec := recover()
	if rec == nil {
		return
	}
	if path := s.dumpFlight(); path != "" {
		rec = fmt.Sprintf("%v\n  (flight recorder dumped to %s)", rec, path)
	}
	panic(rec)
}

// dumpFlight writes the flight-recorder ring to
// <dir>/flight-<bench>-<label>[-i<interval>].jsonl, returning the path (""
// when disabled, empty, or on I/O failure — a crash dump must never mask
// the crash).
func (s *Session) dumpFlight() string {
	fr, dir := s.c.FlightRecorder(), s.opts.FlightDumpDir
	if dir == "" || fr == nil || fr.Len() == 0 || os.MkdirAll(dir, 0o755) != nil {
		return ""
	}
	name := "flight-" + s.bench + "-" + s.label
	if s.interval >= 0 {
		name += fmt.Sprintf("-i%d", s.interval)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	if fr.WriteJSONL(f) != nil {
		return ""
	}
	return path
}
