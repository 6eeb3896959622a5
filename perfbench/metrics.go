package main

import "runaheadsim/internal/core"

// metricDecl declares one reported metric as BENCHMARK.json does.
// TestDeclarationsMatchBenchmarkJSON keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are printed with --trace 0. Bounds are the share of the
// parent's median by which a metric may worsen; see README.md for the
// noise they were set against.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"host_ns_per_uop", "ns", "lower", 0.25},
	{"host_ns_per_issued_uop", "ns", "lower", 0.25},
	{"alloc_bytes_per_uop", "B", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.2},
	{"sim_ipc_geomean", "uop/cycle", "higher", 0.01},
}

// spanNames are the spans traced passes record around public calls.
var spanNames = []string{
	"span.load_s", "span.new_s", "span.warmup_s", "span.measure_s",
	"span.plan_s", "span.fastforward_s", "span.interval_warmup_s", "span.interval_measure_s",
}

// fixedLayerMetrics are the per-layer metrics other than layer host times
// and per-cell rows.
var fixedLayerMetrics = []metricDecl{
	{"trace.wall_s", "s", "lower", 0},
	{"trace.host_ns_per_uop", "ns", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"harness.worker_busy_frac", "ratio", "higher", 0},
	{"harness.longest_cell_s", "s", "lower", 0},
	{"harness.detailed_uops_frac", "ratio", "lower", 0},
	{"ipc_err_max_pct", "%", "lower", 0},
	{"ipc_err_mean_pct", "%", "lower", 0},
	{"weighted_speedup_base", "ratio", "higher", 0},
	{"weighted_speedup_rb", "ratio", "higher", 0},
	{"multicore.llc_arb_wait_avg_cycles", "cycles", "lower", 0},
	{"multicore.max_slowdown_base", "ratio", "lower", 0},
	{"multicore.max_slowdown_rb", "ratio", "lower", 0},
	{"core.issued_per_uop", "ratio", "lower", 0},
	{"core.fetched_per_uop", "ratio", "lower", 0},
	{"core.squashed_per_uop", "ratio", "lower", 0},
	{"core.fe_gated_frac", "ratio", "higher", 0},
	{"core.mem_stall_frac", "ratio", "lower", 0},
	{"core.warped_cycle_frac", "ratio", "higher", 0},
	{"bpred.mispredicts_pki", "1/kuop", "lower", 0},
	{"core.runahead.intervals_pki", "1/kuop", "lower", 0},
	{"core.runahead.uops_per_uop", "ratio", "lower", 0},
	{"core.runahead.misses_per_kuop", "1/kuop", "higher", 0},
	{"core.runahead.chain_gen_fail_frac", "ratio", "lower", 0},
	{"core.runahead.chain_cache_hit_frac", "ratio", "higher", 0},
	{"cache.llc_mpki", "1/kuop", "lower", 0},
	{"dram.requests_pki", "1/kuop", "lower", 0},
	{"dram.row_hit_frac", "ratio", "higher", 0},
	{"dram.avg_latency_cycles", "cycles", "lower", 0},
	{"dram.rejects_pki", "1/kuop", "lower", 0},
	{"runtime.gc_count", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
	{"run_failure_rate", "ratio", "lower", 0},
}

// perLayerMetrics lists every metric printed with --trace 1: layer host
// times, spans, the fixed metrics, then per-cell rows of the full-detail
// workloads.
func perLayerMetrics() []metricDecl {
	var out []metricDecl
	for _, l := range layerNames() {
		out = append(out, metricDecl{l + ".host_ns_per_uop", "ns", "lower", 0})
	}
	for _, s := range spanNames {
		out = append(out, metricDecl{s, "s", "lower", 0})
	}
	out = append(out, fixedLayerMetrics...)
	for _, k := range memKernels {
		for _, m := range []core.Mode{core.ModeNone, core.ModeTraditional, core.ModeBuffer, core.ModeBufferCC} {
			for _, per := range []string{"host_ns_per_uop", "host_ns_per_issued_uop"} {
				out = append(out, metricDecl{"cell." + cellName(k, m) + "." + per, "ns", "lower", 0})
			}
		}
	}
	return out
}
