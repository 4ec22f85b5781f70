package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint says where and how a run was made; compare refuses to
// set two runs side by side unless the parts that decide speed agree.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"window_seconds"`
	// Quick marks a smoke run, never comparable.
	Quick bool `json:"quick,omitempty"`
}

func takeFingerprint(seed uint64, seconds int, quick bool) fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Quick: quick,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	// A checkout without git history (an archive) has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}
