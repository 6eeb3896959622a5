package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestParallelSweepByteIdentical is the -j acceptance check: the same sweep
// on one worker and on four must render identical bytes.
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	base := []string{"-experiments", "figure9,figure12", "-benchmarks", "mcf,libquantum",
		"-uops", "8000", "-warmup", "8000", "-q"}
	var seq, par bytes.Buffer
	if code := run(append(append([]string{}, base...), "-j", "1"), &seq, io.Discard); code != 0 {
		t.Fatalf("sequential sweep exited %d", code)
	}
	if code := run(append(append([]string{}, base...), "-j", "4"), &par, io.Discard); code != 0 {
		t.Fatalf("parallel sweep exited %d", code)
	}
	if seq.Len() == 0 {
		t.Fatal("sweep produced no output")
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("-j 4 output differs from -j 1:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq.String(), par.String())
	}
}

// TestSampledSweepRuns checks the -sample path end to end: the sampled
// sweep must exit cleanly and render its tables. Sampling accuracy against
// full detail is pinned in the harness (TestSampledMatchesFullRun).
func TestSampledSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	args := []string{"-experiments", "figure12", "-benchmarks", "mcf",
		"-uops", "60000", "-warmup", "30000", "-q",
		"-sample", "-intervals", "4", "-j", "4"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("sampled sweep exited %d: %s", code, errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("== figure12:")) || !bytes.Contains(out.Bytes(), []byte("mcf")) {
		t.Fatalf("sampled sweep rendered no figure12 table:\n%s", out.String())
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiments", "figure99"}, &out, &errb); code == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if !bytes.Contains(errb.Bytes(), []byte("figure99")) {
		t.Fatalf("error does not name the unknown experiment: %s", errb.String())
	}
}

// TestMixModeRuns checks the multi-programmed path end to end: -cores 2
// must render the per-core table with both configurations and the fairness
// summary rows, and the JSON form must key per-core stats by core ID.
func TestMixModeRuns(t *testing.T) {
	args := []string{"-cores", "2", "-mix", "libquantum,mcf", "-uops", "8000", "-warmup", "4000", "-q"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("mix mode exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"multiprog", "libquantum", "mcf", "WS=", "hmean=", "max=", "Base", "RB"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("mix table missing %q:\n%s", want, out.String())
		}
	}

	var jsOut bytes.Buffer
	if code := run(append(append([]string{}, args...), "-json"), &jsOut, io.Discard); code != 0 {
		t.Fatal("mix mode -json failed")
	}
	var results []struct {
		Config string                     `json:"config"`
		WS     float64                    `json:"weighted_speedup"`
		Cores  map[string]json.RawMessage `json:"cores"`
	}
	if err := json.Unmarshal(jsOut.Bytes(), &results); err != nil {
		t.Fatalf("mix JSON invalid: %v\n%s", err, jsOut.String())
	}
	if len(results) != 2 {
		t.Fatalf("want 2 configurations, got %d", len(results))
	}
	for _, r := range results {
		if r.WS <= 0 || len(r.Cores) != 2 || r.Cores["0"] == nil || r.Cores["1"] == nil {
			t.Fatalf("mix JSON missing per-core-ID stats: %s", jsOut.String())
		}
	}
}

// TestMixModeBadFlags pins flag validation: a -mix/-cores mismatch must be
// rejected.
func TestMixModeBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-cores", "3", "-mix", "mcf,milc"}, &out, &errb); code == 0 {
		t.Fatal("mismatched -mix/-cores accepted")
	}
}
