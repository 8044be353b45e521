package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// ManifestName is the file name every run writes next to its outputs.
const ManifestName = "manifest.json"

// Manifest records everything needed to compare and reproduce a run:
// the tool and code version, the full configuration and seed, the
// effective parallelism, per-stage wall timings, and content digests of
// every output file. OBSERVABILITY.md documents the schema.
type Manifest struct {
	// Tool is the producing command ("satgen", "satlive", ...).
	Tool string `json:"tool"`
	// Version identifies the build (module version plus VCS revision
	// when the binary was built with VCS stamping; see Version).
	Version string `json:"version"`
	// Created is the wall-clock completion time, RFC 3339.
	Created time.Time `json:"created"`
	// Seed is the run's deterministic seed.
	Seed uint64 `json:"seed"`
	// Parallelism is the effective pass-B worker count of the run (the
	// resolved value, never 0).
	Parallelism int `json:"parallelism,omitempty"`
	// Config is the full simulation configuration, marshaled as-is.
	Config any `json:"config,omitempty"`
	// Status is the run outcome: "ok", "degraded" (completed but dropped
	// work, see Errors), or "partial" (interrupted before completion). A
	// missing Status on an old manifest means "ok".
	Status string `json:"status,omitempty"`
	// Faults is the active fault schedule of the run, marshaled as-is;
	// absent for clear-sky runs.
	Faults any `json:"faults,omitempty"`
	// Errors lists what a degraded run dropped, one line each.
	Errors []string `json:"errors,omitempty"`
	// TimingsSeconds maps stage name to wall seconds (e.g. "pass_a",
	// "pass_b", "analyze").
	TimingsSeconds map[string]float64 `json:"timings_seconds"`
	// Outputs maps output file base name to "sha256:<hex>" digests.
	Outputs map[string]string `json:"outputs"`
	// Allocs maps stage name to the stage's allocation delta (bytes and
	// object counts from the runtime allocation counters, captured at the
	// stage boundaries — see internal/prof). Keys match TimingsSeconds.
	// Absent on manifests from older builds.
	Allocs map[string]AllocInfo `json:"allocs,omitempty"`
	// AllocBytesPerFlow is the derived per-flow allocation cost: the sum
	// of the Allocs byte deltas over the flow count of the run. 0/absent
	// when the run produced no flows or predates alloc accounting.
	AllocBytesPerFlow float64 `json:"alloc_bytes_per_flow,omitempty"`
	// Mem is the run's memory footprint (heap, allocation and GC deltas,
	// sampled peak heap); absent on manifests from older builds and on
	// the early status-partial manifest written before simulation.
	Mem *MemInfo `json:"mem,omitempty"`
	// Trace records the flow-trace output when the run had -trace set.
	Trace *TraceInfo `json:"trace,omitempty"`
	// Profiles records the profile artifacts of a run with -profile set.
	Profiles *ProfilesInfo `json:"profiles,omitempty"`
}

// AllocInfo is one stage's allocation delta: heap bytes and objects
// allocated between the stage's boundaries (runtime.MemStats TotalAlloc
// and Mallocs deltas; process-wide, so it attributes cleanly only across
// sequential stage boundaries).
type AllocInfo struct {
	Bytes   uint64 `json:"bytes"`
	Objects uint64 `json:"objects"`
}

// ProfilesInfo describes the profile artifacts a run captured under
// -profile DIR: the directory as given on the command line and the
// artifact files with their content digests. Profiles are observations
// of the run, not outputs of the simulation — they are not deterministic
// and are deliberately kept out of the Outputs digest map.
type ProfilesInfo struct {
	Dir string `json:"dir"`
	// Files maps artifact base name ("cpu.pprof", "heap.pprof", ...) to
	// "sha256:<hex>" digests.
	Files map[string]string `json:"files"`
}

// TraceInfo describes a run's flow-trace output (see internal/trace).
type TraceInfo struct {
	// File is the trace path as given on the command line.
	File string `json:"file"`
	// SHA256 is the trace file's content digest ("sha256:<hex>"); empty
	// when the file was missing or empty at manifest time.
	SHA256 string `json:"sha256,omitempty"`
	// Sample is the 1-in-N sampling rate the run used.
	Sample int `json:"sample"`
}

// NewManifest starts a manifest for a tool invocation.
func NewManifest(tool string, seed uint64) *Manifest {
	return &Manifest{
		Tool:           tool,
		Version:        Version(),
		Created:        time.Now().UTC(),
		Seed:           seed,
		TimingsSeconds: map[string]float64{},
		Outputs:        map[string]string{},
	}
}

// AddTiming records a stage wall time.
func (m *Manifest) AddTiming(stage string, d time.Duration) {
	m.TimingsSeconds[stage] = d.Seconds()
}

// AddAlloc records a stage allocation delta next to its wall timing.
func (m *Manifest) AddAlloc(stage string, a AllocInfo) {
	if m.Allocs == nil {
		m.Allocs = map[string]AllocInfo{}
	}
	m.Allocs[stage] = a
}

// AddOutput digests the file at path (sha256) and records it under its
// base name.
func (m *Manifest) AddOutput(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("obs: manifest output: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("obs: manifest digest %s: %w", path, err)
	}
	m.Outputs[filepath.Base(path)] = "sha256:" + hex.EncodeToString(h.Sum(nil))
	return nil
}

// AddTrace records the run's trace file and sampling config. Unlike
// AddOutput it tolerates a missing or empty file — a sampled run can
// legitimately select zero flows — recording the path and rate without a
// digest in that case.
func (m *Manifest) AddTrace(path string, sampleN int) {
	m.Trace = &TraceInfo{File: path, Sample: sampleN}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		return
	}
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return
	}
	m.Trace.SHA256 = "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Write serializes the manifest as dir/manifest.json, atomically: a
// reader never sees a half-written manifest, even if the writer dies
// mid-call.
func (m *Manifest) Write(dir string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: manifest marshal: %w", err)
	}
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// Version reports the build's identity from the embedded build info: the
// main module version, plus the VCS revision (short) and a "-dirty"
// marker when built from a modified tree. Binaries built without VCS
// stamping (e.g. plain `go test`) report "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		ver += "+" + rev
		if dirty {
			ver += "-dirty"
		}
	}
	return ver
}
