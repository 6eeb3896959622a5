package main

import (
	"testing"

	"runaheadsim/internal/core"
)

// TestBuildConfigAcceptsEveryMode pins the -mode table used by the
// checkpoint, restore and trace paths: every mode the simulator names must
// resolve, and an unknown name must be rejected.
func TestBuildConfigAcceptsEveryMode(t *testing.T) {
	for m := core.ModeNone; m <= core.ModeAdaptive; m++ {
		cfg, err := buildConfig(m.String(), false, false, "stream")
		if err != nil {
			t.Fatalf("-mode %s: %v", m, err)
		}
		if cfg.Mode != m {
			t.Errorf("-mode %s built a %v machine", m, cfg.Mode)
		}
	}
	if _, err := buildConfig("turbo", false, false, "stream"); err == nil {
		t.Error("unknown -mode accepted")
	}
}
