package main

import (
	"path"
	"strings"
)

// layerTable assigns every non-test Go source file under internal/ to
// exactly one simulator layer. An entry ending in "/" covers a whole
// package directory; any other entry names one file. internal/core is
// listed file by file because its files belong to different pipeline
// layers. TestLayerTableCoversInternal fails when a file matches no entry or
// more than one, and when an entry matches nothing.
var layerTable = []struct {
	layer   string
	entries []string
}{
	{"core.runahead", []string{
		"internal/core/runahead.go", "internal/core/chain.go",
		"internal/core/chaincache.go", "internal/core/racache.go",
	}},
	{"core.sched", []string{"internal/core/sched.go"}},
	{"core.backend", []string{"internal/core/backend.go"}},
	{"core.regfile", []string{"internal/core/regfile.go"}},
	{"core.commit", []string{"internal/core/commit.go"}},
	{"core.frontend", []string{"internal/core/frontend.go", "internal/bpred/"}},
	{"core.warp", []string{"internal/core/warp.go"}},
	// The cycle driver: event queue, uop pool, configuration, stats block
	// and the drain used before snapshots.
	{"core.loop", []string{
		"internal/core/core.go", "internal/core/dyninst.go", "internal/core/config.go",
		"internal/core/corestats.go", "internal/core/drain.go",
	}},
	// Observability: self-profiling metrics, pipeline trace, timeline,
	// flight recorder, CPI stack and the Figure 2-5 dependence walk.
	{"core.obs", []string{
		"internal/core/metrics.go", "internal/core/trace.go", "internal/core/timeline.go",
		"internal/core/flight.go", "internal/core/cpistack.go", "internal/core/deptrack.go",
		"internal/metrics/", "internal/trace/", "internal/telemetry/",
	}},
	{"memsys", []string{"internal/memsys/"}},
	{"dram", []string{"internal/dram/"}},
	{"cache", []string{"internal/cache/"}},
	{"prefetch", []string{"internal/prefetch/"}},
	{"isa", []string{"internal/isa/"}},
	{"prog", []string{"internal/prog/"}},
	{"harness", []string{"internal/harness/", "internal/phases/"}},
	{"multicore", []string{"internal/multicore/"}},
	{"workload", []string{"internal/workload/"}},
	{"snapshot", []string{"internal/snapshot/", "internal/core/snapshot.go"}},
	{"simcheck", []string{"internal/simcheck/", "internal/core/invariants.go"}},
	{"stats", []string{"internal/stats/"}},
	{"energy", []string{"internal/energy/"}},
	// Code the benchmark never runs: the analytical twin and the linter.
	{"offline", []string{"internal/twin/", "internal/simlint/"}},
}

// Layers that are not source directories of the module.
const (
	layerGC           = "runtime.gc"
	layerUnattributed = "unattributed"
)

// layerNames lists every layer in report order, ending with the two that do
// not come from layerTable.
func layerNames() []string {
	var out []string
	for _, l := range layerTable {
		out = append(out, l.layer)
	}
	return append(out, layerGC, layerUnattributed)
}

// layersOf returns every layer whose entries match file, a path relative to
// the module root such as "internal/core/sched.go".
func layersOf(file string) []string {
	var out []string
	for _, l := range layerTable {
		for _, e := range l.entries {
			if entryMatches(e, file) {
				out = append(out, l.layer)
			}
		}
	}
	return out
}

// entryMatches reports whether a layerTable entry covers file.
func entryMatches(e, file string) bool {
	return e == file || (strings.HasSuffix(e, "/") && path.Dir(file)+"/" == e)
}

// moduleFile returns file relative to the simulator module's root, or
// false when the file is outside the module. Built with -trimpath, the
// simulator's files are named "runaheadsim@v0.0.0/internal/..." in a
// profile, since the benchmark module requires the simulator module.
func moduleFile(file string) (string, bool) {
	first, rest, ok := strings.Cut(file, "/")
	if ok && (first == "runaheadsim" || strings.HasPrefix(first, "runaheadsim@")) {
		return rest, true
	}
	return "", false
}

// gcFilePrefixes are the runtime source files (by base name) that implement
// allocation and garbage collection.
var gcFilePrefixes = []string{
	"malloc", "mgc", "mbitmap", "mheap", "mcache", "mcentral", "mwbbuf",
	"mfinal", "mfixalloc", "mpage", "mspanset", "msize", "mstats", "arena",
}

// frameLayer maps one profile frame to a layer, or "" when the frame
// belongs to no layer (the standard library outside the allocator, the
// benchmark itself) and the sample should be charged to a caller instead.
func frameLayer(file, function string) string {
	if rel, ok := moduleFile(file); ok {
		if ls := layersOf(rel); len(ls) == 1 {
			return ls[0]
		}
		return ""
	}
	if strings.HasPrefix(function, "runtime.gcWriteBarrier") {
		return layerGC
	}
	if dir, base := path.Split(file); dir == "runtime/" {
		for _, p := range gcFilePrefixes {
			if strings.HasPrefix(base, p) {
				return layerGC
			}
		}
	}
	return ""
}
