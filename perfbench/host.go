package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is the host block printed with every result, so that no number
// from this benchmark is quoted without the machine it ran on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"` // "true", "false" or "unknown"
}

func describeHost(root string) hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h // not a git checkout: commit and dirtiness are unknown
	}
	git := func(args ...string) (string, bool) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		// Never let git search above the checkout for a repository.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err == nil
	}
	if rev, ok := git("rev-parse", "HEAD"); ok {
		h.Commit = rev
	}
	if st, ok := git("status", "--porcelain", "--untracked-files=no"); ok {
		if st == "" {
			h.Dirty = "false"
		} else {
			h.Dirty = "true"
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
