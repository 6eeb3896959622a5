package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"runaheadsim/internal/core"
)

// runCLI runs the command in-process and returns its exit code and output.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// golden compares got against testdata/<name>. The golden files were
// captured from the command before it moved onto harness.Session; a
// refactor must leave them byte-identical.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"mcf.golden", []string{"-bench", "mcf", "-uops", "20000"}},
		{"all-modes.golden", []string{"-all-modes", "-uops", "20000"}},
		{"trace.jsonl.golden", []string{"-trace", "300", "-trace-format", "jsonl"}},
	} {
		code, out, errOut := runCLI(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s", tc.args, code, errOut)
		}
		golden(t, tc.golden, out)
	}
}

// TestCheckpointRestoreRoundTrip checkpoints and restores in-process in the
// two modes CI round-trips, and pins both printouts (snapshot size, resume
// point and stats digests). A restore under another -mode must be refused.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	for _, mode := range []string{"runahead-buffer+cc", "adaptive-hybrid"} {
		snap := filepath.Join(t.TempDir(), "ck.rsnp")
		code, out, errOut := runCLI(t, "-bench", "mcf", "-mode", mode, "-warmup", "20000", "-uops", "20000",
			"-checkpoint-out", snap, "-check")
		if code != 0 {
			t.Fatalf("%s checkpoint exited %d: %s", mode, code, errOut)
		}
		golden(t, "checkpoint-"+mode+".golden", strings.ReplaceAll(out, snap, "ck.rsnp"))

		code, out, errOut = runCLI(t, "-bench", "mcf", "-mode", mode, "-uops", "20000", "-restore", snap, "-check")
		if code != 0 {
			t.Fatalf("%s restore exited %d: %s", mode, code, errOut)
		}
		golden(t, "restore-"+mode+".golden", strings.ReplaceAll(out, snap, "ck.rsnp"))

		code, _, errOut = runCLI(t, "-bench", "mcf", "-mode", "hybrid", "-uops", "2000", "-restore", snap)
		if code != 1 || !strings.Contains(errOut, "different configuration") {
			t.Errorf("%s snapshot restored under -mode hybrid: exit %d, stderr %q", mode, code, errOut)
		}
	}
}

// TestWatchdogOnEveryPath pins -watchdog and -flight-dump on the
// checkpoint, restore and trace paths: a 5-cycle budget trips before the
// first commit, the run dies with exit 2, and the flight recorder lands
// under the harness label.
func TestWatchdogOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "ck.rsnp")
	if code, _, errOut := runCLI(t, "-bench", "mcf", "-warmup", "1000", "-uops", "2000", "-checkpoint-out", snap); code != 0 {
		t.Fatalf("checkpoint exited %d: %s", code, errOut)
	}
	for _, path := range []string{"-checkpoint-out", "-restore", "-trace-out"} {
		dumps := filepath.Join(dir, "dumps"+path)
		arg := snap
		if path == "-trace-out" {
			arg = filepath.Join(dir, "trace.txt")
		}
		code, _, errOut := runCLI(t, "-bench", "mcf", "-warmup", "1000", "-uops", "2000",
			"-watchdog", "5", "-flight-dump", dumps, path, arg)
		if code != 2 || !strings.Contains(errOut, "watchdog") {
			t.Errorf("%s -watchdog 5: exit %d, stderr %q", path, code, errOut)
		}
		if fi, err := os.Stat(filepath.Join(dumps, "flight-mcf-Base.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s -watchdog 5 left no flight dump: %v", path, err)
		}
	}
}

// TestModeFlagAcceptsEveryMode pins the -mode table: every mode the core
// names is listed in the help text and builds a machine, and an unknown
// name is refused.
func TestModeFlagAcceptsEveryMode(t *testing.T) {
	_, _, usage := runCLI(t, "-h")
	for m := core.ModeNone; m <= core.ModeAdaptive; m++ {
		if !strings.Contains(usage, m.String()) {
			t.Errorf("-mode help does not list %s", m)
		}
		if code, _, errOut := runCLI(t, "-mode", m.String(), "-trace", "1"); code != 0 {
			t.Errorf("-mode %s exited %d: %s", m, code, errOut)
		}
	}
	if code, _, _ := runCLI(t, "-mode", "turbo", "-trace", "1"); code != 1 {
		t.Errorf("-mode turbo exited %d, want 1", code)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		code int
		args []string
	}{
		{2, []string{"-pfkind", "delta"}},
		{2, []string{"-no-such-flag"}},
		{1, []string{"-mode", "turbo", "-uops", "1000"}},
		{1, []string{"-bench", "nosuch", "-uops", "1000"}},
		{1, []string{"-bench", "nosuch", "-checkpoint-out", "x.rsnp"}},
	} {
		if code, _, _ := runCLI(t, tc.args...); code != tc.code {
			t.Errorf("%v exited %d, want %d", tc.args, code, tc.code)
		}
	}
}
