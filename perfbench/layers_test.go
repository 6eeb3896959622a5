package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerTableCoversInternal requires every non-test Go file under
// internal/ to map to exactly one layer, and every table entry to match
// at least one file.
func TestLayerTableCoversInternal(t *testing.T) {
	used := map[string]bool{}
	n := 0
	err := filepath.WalkDir("../internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, "../"))
		n++
		switch ls := layersOf(rel); len(ls) {
		case 0:
			t.Errorf("%s maps to no layer; add it to layerTable", rel)
		case 1:
		default:
			t.Errorf("%s maps to %d layers %v; it must map to exactly one", rel, len(ls), ls)
		}
		for _, l := range layerTable {
			for _, e := range l.entries {
				if entryMatches(e, rel) {
					used[e] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("found no Go files under ../internal")
	}
	for _, l := range layerTable {
		for _, e := range l.entries {
			if !used[e] {
				t.Errorf("layerTable entry %q (%s) matches no file", e, l.layer)
			}
		}
	}
}

func TestLayerNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range layerNames() {
		if seen[l] {
			t.Errorf("layer %q listed twice", l)
		}
		seen[l] = true
	}
}

func TestFrameLayer(t *testing.T) {
	for _, tc := range []struct{ file, fn, want string }{
		{"runaheadsim/internal/core/sched.go", "runaheadsim/internal/core.(*Core).issue", "core.sched"},
		{"runaheadsim@v0.0.0/internal/dram/dram.go", "runaheadsim/internal/dram.(*Controller).Tick", "dram"},
		{"runaheadsim/internal/bpred/bpred.go", "runaheadsim/internal/bpred.(*Predictor).Predict", "core.frontend"},
		{"runaheadsim/internal/core/snapshot.go", "runaheadsim/internal/core.(*Core).Snapshot", "snapshot"},
		{"runtime/mgcmark.go", "runtime.scanobject", layerGC},
		{"runtime/malloc.go", "runtime.mallocgc", layerGC},
		{"runtime/asm_amd64.s", "runtime.gcWriteBarrier2", layerGC},
		{"runtime/map_fast64.go", "runtime.mapaccess1_fast64", ""},
		{"runaheadsim/perfbench/main.go", "main.run", ""},
		{"sort/sort.go", "sort.Sort", ""},
	} {
		if got := frameLayer(tc.file, tc.fn); got != tc.want {
			t.Errorf("frameLayer(%q, %q) = %q, want %q", tc.file, tc.fn, got, tc.want)
		}
	}
}
