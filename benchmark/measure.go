package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"satwatch/internal/bench"
	"satwatch/internal/obs"
)

// procStart is taken at package initialization: the earliest instant the
// program can read, the origin of a process's own setup_s.
var procStart = time.Now()

// workers is P, the worker count used everywhere: load generators, pass
// A/B parallelism and live shards alike.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// usage is a point reading of what a timed section is charged for: wall
// clock, process CPU (user+sys, getrusage) and the allocation counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF on the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// cost is the difference of two usage readings.
type cost struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
}

func (u usage) since(start usage) cost {
	return cost{
		Wall:    u.at.Sub(start.at),
		CPU:     u.cpu - start.cpu,
		Mallocs: u.mallocs - start.mallocs,
		Bytes:   u.bytes - start.bytes,
	}
}

// measure runs fn between two usage readings.
func measure(fn func()) cost {
	start := readUsage()
	fn()
	return readUsage().since(start)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runChild starts this same binary in an internal -child mode, waits for
// it to end, and decodes the one JSON value it prints. A fresh process is
// the only way to get an empty MAC cell cache and a VmHWM of its own.
func runChild(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // Output waits for the child to end
	if err != nil {
		return fmt.Errorf("child %s: %w", args[0], err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %s output: %w", args[0], err)
	}
	return nil
}

// setPeakRSS records this process's VmHWM as peak_rss_mb.
func setPeakRSS(res *Result) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}

// counter reads one metric of the process-wide registry (0 if absent).
func counter(name string) float64 {
	s, _ := obs.Default.Get(name)
	return s.Value
}

// Fingerprint identifies the box and tree a result was recorded on.
// Results compare only when everything but Commit matches.
type Fingerprint struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	P         int    `json:"p"`
	CPUModel  string `json:"cpu_model"`
	Kernel    string `json:"kernel"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Commit    string `json:"git_commit"`
}

func fingerprint(seed uint64, seconds int) Fingerprint {
	return Fingerprint{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		P:         workers(),
		CPUModel:  bench.Environment().CPUModel,
		Kernel:    firstLine("/proc/sys/kernel/osrelease"),
		Seed:      seed,
		Seconds:   seconds,
		Commit:    gitCommit(),
	}
}

// comparable reports why two results must not be compared ("" if they may).
func (f Fingerprint) comparable(g Fingerprint) string {
	f.Commit, g.Commit = "", ""
	if f != g {
		return fmt.Sprintf("fingerprints differ: %+v vs %+v", f, g)
	}
	return ""
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return strings.TrimSpace(string(line))
}

// gitCommit resolves HEAD by reading .git directly (the driver's checkout
// is not a repository, and the benchmark starts no process it does not
// need): "unknown" when there is none.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head := firstLine(filepath.Join(dir, ".git", "HEAD")); head != "unknown" {
			ref, ok := strings.CutPrefix(head, "ref: ")
			if !ok {
				return head
			}
			if sha := firstLine(filepath.Join(dir, ".git", ref)); sha != "unknown" {
				return sha
			}
			packed, _ := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
