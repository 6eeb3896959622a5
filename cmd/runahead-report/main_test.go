package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins a small-budget report byte for byte; the golden
// file was captured before the command moved onto its own FlagSet.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: simulates the whole claim set")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-uops", "2000", "-q"}, &out, &errb); code != 0 {
		t.Fatalf("report exited %d: %s", code, errb.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report-uops2000.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from testdata/report-uops2000.golden:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
}

// TestBadFlagsExit2 checks that malformed invocations are refused before
// any simulation starts.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-sample", "-sample-mode", "bogus"},
		{"-cores", "3", "-mix", "mcf,milc"},
		{"-screen", "-twin", filepath.Join(t.TempDir(), "missing.json")},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote output before refusing: %q", args, out.String())
		}
	}
}
