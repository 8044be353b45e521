// Package bench fingerprints the machine a measurement was taken on. The
// repository benchmark (benchmark/, its own module) stamps every report
// with it and refuses to compare reports from different machines.
package bench

import (
	"os"
	"runtime"
	"strings"
)

// Env fingerprints the machine a measurement was recorded on, so results
// across hosts are recognizably apples-to-oranges.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Environment captures the current process's fingerprint.
func Environment() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (linux /proc/cpuinfo;
// empty elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
