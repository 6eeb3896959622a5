package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestDeclarationsMatchBenchmarkJSON keeps the metrics the benchmark
// prints in step with what BENCHMARK.json declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i := 0; i < len(bj.Workloads) && i < len(workloadNames); i++ {
		if bj.Workloads[i].Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, workloadNames[i])
		}
	}
	compare := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEndMetrics)
	compare("per_layer", bj.PerLayer, perLayerMetrics())
}

func TestUnknownWorkloadIsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-seconds", "1"}, &out, &errb); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("an unknown workload printed %q", out.String())
	}
}
