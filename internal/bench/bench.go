// Package bench is the pipeline's performance observatory: a fixed
// scenario matrix (population size × fault schedule × parallelism), a
// runner that drives the in-process pipeline (the same netsim → analytics
// path the CLIs and the root bench_test.go harness use) while capturing
// per-stage wall times, throughput, memory behaviour and a full metrics
// snapshot, and a schema-versioned BENCH_*.json artifact that cmd/satdiff
// can compare run-to-run to catch regressions. OBSERVABILITY.md's
// "Benchmarking and regression detection" section is the runbook.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path"
	"runtime"
	"strings"
	"time"

	"satwatch/internal/analytics"
	"satwatch/internal/faults"
	"satwatch/internal/linkemu"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
	"satwatch/internal/pep"
	"satwatch/internal/tunnel"
)

// Schema is the BENCH file schema version; bump on breaking changes so
// satdiff can refuse to compare incompatible artifacts.
const Schema = 1

// Kind is the BENCH artifact discriminator satdiff auto-detects.
const Kind = "satbench"

// Scenario is one cell of the benchmark matrix.
type Scenario struct {
	// Name identifies the scenario across runs ("medium-stress-pmax");
	// satdiff matches scenarios by name.
	Name string `json:"name"`
	// Customers / Days / Seed parameterize the simulated deployment.
	Customers int    `json:"customers"`
	Days      int    `json:"days"`
	Seed      uint64 `json:"seed"`
	// Parallelism is the worker count (0 = GOMAXPROCS, the "pmax"
	// scenarios). Outputs are byte-identical at any value; only the
	// timings move.
	Parallelism int `json:"parallelism"`
	// Faults is a fault-schedule preset name ("" = clear sky).
	Faults string `json:"faults,omitempty"`
	// Constellation is the constellation backend ("" = geo).
	Constellation string `json:"constellation,omitempty"`
	// PepLoad, when set, switches the scenario from the netsim pipeline
	// to the concurrent split-TCP load harness (pep.RunLoad): real
	// sockets through the tunnel/PEP stack over an emulated link.
	PepLoad *PepLoadSpec `json:"pep_load,omitempty"`
}

// PepLoadSpec parameterizes a pepload scenario.
type PepLoadSpec struct {
	Flows       int `json:"flows"`
	Concurrency int `json:"concurrency"`
}

// identity is the output-determinism key: scenarios that share it must
// produce byte-identical pipeline outputs regardless of Parallelism.
func (s Scenario) identity() string {
	id := fmt.Sprintf("%d/%d/%d/%s/%s", s.Customers, s.Days, s.Seed, s.Faults, s.Constellation)
	if s.PepLoad != nil {
		// Load runs measure a live network, not a deterministic pipeline;
		// keep them out of the netsim digest groups.
		id += fmt.Sprintf("/pepload-%d-%d", s.PepLoad.Flows, s.PepLoad.Concurrency)
	}
	return id
}

// The matrix sizes. Small enough that the full matrix stays in CI
// territory, large enough that stage timings are meaningful.
var sizes = []struct {
	name      string
	customers int
}{
	{"small", 20},
	{"medium", 60},
	{"large", 160},
}

func matrix(seed uint64, sizeNames ...string) []Scenario {
	keep := map[string]bool{}
	for _, n := range sizeNames {
		keep[n] = true
	}
	var out []Scenario
	for _, sz := range sizes {
		if len(keep) > 0 && !keep[sz.name] {
			continue
		}
		// GEO scenarios keep their historical names ("small-clear-p1") so
		// BENCH artifacts stay comparable across the constellation change;
		// LEO variants interleave as "small-leo-clear-p1".
		for _, con := range []string{"", "leo"} {
			sname := sz.name
			if con != "" {
				sname += "-" + con
			}
			for _, flt := range []string{"", "stress"} {
				fname := "clear"
				if flt != "" {
					fname = flt
				}
				for _, par := range []struct {
					name string
					n    int
				}{{"p1", 1}, {"pmax", 0}} {
					out = append(out, Scenario{
						Name:          sname + "-" + fname + "-" + par.name,
						Customers:     sz.customers,
						Days:          1,
						Seed:          seed,
						Parallelism:   par.n,
						Faults:        flt,
						Constellation: con,
					})
				}
			}
		}
	}
	// The pepload scenarios exercise the real-socket tunnel/PEP stack
	// under concurrent load instead of the simulator pipeline. They are
	// cheap enough to ride in every matrix, including the CI subset.
	for _, flt := range []string{"", "stress"} {
		fname := "clear"
		if flt != "" {
			fname = flt
		}
		out = append(out, Scenario{
			Name:    "pepload-200-" + fname,
			Days:    1,
			Seed:    seed,
			Faults:  flt,
			PepLoad: &PepLoadSpec{Flows: 200, Concurrency: 100},
		})
	}
	return out
}

// Matrix is the full scenario matrix: {small, medium, large} × {geo, leo}
// × {clear, stress} × {1 worker, GOMAXPROCS workers} plus the two pepload
// load-harness scenarios — 26 scenarios.
func Matrix(seed uint64) []Scenario { return matrix(seed) }

// ReducedMatrix is the CI subset: small and medium sizes only, plus the
// pepload scenarios — 18 scenarios, a couple of seconds each on a laptop.
func ReducedMatrix(seed uint64) []Scenario { return matrix(seed, "small", "medium") }

// ByName finds a scenario of the full matrix by name.
func ByName(name string, seed uint64) (Scenario, bool) {
	for _, sc := range Matrix(seed) {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Result is one scenario's measured outcome.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// WallSeconds is the scenario's total wall time (generate + analyze).
	WallSeconds float64 `json:"wall_seconds"`
	// TimingsSeconds are the per-stage wall times, taken from the same
	// manifest plumbing the CLIs use (pass_a, mac_prebuild, pass_b,
	// merge) plus the generate and analyze stage totals.
	TimingsSeconds map[string]float64 `json:"timings_seconds"`
	// Flows / DNS are the record counts of the run.
	Flows int `json:"flows"`
	DNS   int `json:"dns"`
	// FlowsPerSecond is Flows over the generate stage wall time.
	FlowsPerSecond float64 `json:"flows_per_second"`
	// Workers is the effective parallelism the run resolved to.
	Workers int `json:"workers"`
	// Mem is the scenario's memory behaviour (deltas over the run plus
	// the sampled peak heap).
	Mem obs.MemInfo `json:"mem"`
	// AllocsPerFlow / AllocBytesPerFlow are the scenario's allocation cost
	// per synthesized flow (run-wide allocation-counter deltas over the
	// flow count) — the bench's primary alloc regression signals.
	AllocsPerFlow     float64 `json:"allocs_per_flow,omitempty"`
	AllocBytesPerFlow float64 `json:"alloc_bytes_per_flow,omitempty"`
	// Allocs breaks the allocation cost down by pipeline stage, from the
	// same manifest plumbing as TimingsSeconds (pass_a, mac_prebuild,
	// pass_b, merge).
	Allocs map[string]obs.AllocInfo `json:"allocs,omitempty"`
	// Outputs digests the pipeline outputs exactly as the CLIs would
	// serialize them ("sha256:<hex>" per logical file). Equal-identity
	// scenarios must digest identically; see Report.VerifyDigests.
	Outputs map[string]string `json:"outputs"`
	// Metrics is the full obs registry snapshot after the run (the same
	// JSON object `-metrics FILE` dumps).
	Metrics json.RawMessage `json:"metrics"`
}

// Env fingerprints the machine a BENCH file was recorded on, so diffs
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

// Report is the BENCH artifact: environment fingerprint plus one Result
// per scenario.
type Report struct {
	Schema    int       `json:"schema"`
	Kind      string    `json:"kind"`
	Created   time.Time `json:"created"`
	Version   string    `json:"version"`
	Env       Env       `json:"env"`
	Scenarios []Result  `json:"scenarios"`
	// Profiles records the profile artifacts when the matrix ran under
	// satbench -profile (one capture spanning every scenario). Excluded
	// from satdiff comparison: profiles are observations, not outputs.
	Profiles *obs.ProfilesInfo `json:"profiles,omitempty"`
}

// RunScenario executes one scenario in-process and measures it. The
// Default metrics registry is reset at scenario start (exactly like the
// CLIs do at run start), so the embedded snapshot reflects this scenario
// only.
func RunScenario(sc Scenario) (Result, error) {
	var sched *faults.Schedule
	if sc.Faults != "" {
		var err error
		sched, err = faults.Preset(sc.Faults, sc.Days, sc.Seed)
		if err != nil {
			return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if sc.PepLoad != nil {
		return runPepLoadScenario(sc, sched)
	}
	cfg := netsim.Config{
		Customers:     sc.Customers,
		Days:          sc.Days,
		Seed:          sc.Seed,
		Parallelism:   sc.Parallelism,
		Faults:        sched,
		Constellation: sc.Constellation,
	}

	obs.Default.Reset()
	runtime.GC()
	sampler := obs.StartMemSampler(5 * time.Millisecond)
	start := time.Now()
	out, err := netsim.Run(cfg)
	if err != nil {
		sampler.Stop()
		return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	generate := time.Since(start)
	if st := out.Stats.Status(); st != netsim.StatusOK {
		sampler.Stop()
		return Result{}, fmt.Errorf("scenario %s: run completed %s (%d errors)", sc.Name, st, len(out.Stats.Errors))
	}

	analyzeStart := time.Now()
	ds := analytics.NewDataset(out, sc.Days)
	analyze := time.Since(analyzeStart)
	wall := time.Since(start)
	mem := sampler.Stop()

	// Reuse the manifest plumbing for the simulator's per-stage wall
	// times, then extend it with the harness stages.
	m := netsim.ManifestFor("satbench", cfg, out)
	m.AddTiming("generate", generate)
	m.AddTiming("analyze", analyze)

	outputs := map[string]string{}
	for _, name := range netsim.LogNames {
		h := sha256.New()
		if err := out.WriteLog(name, h); err != nil {
			return Result{}, fmt.Errorf("scenario %s: digest %s: %w", sc.Name, name, err)
		}
		outputs[name] = "sha256:" + hex.EncodeToString(h.Sum(nil))
	}

	var metrics bytes.Buffer
	if err := obs.Default.WriteJSON(&metrics); err != nil {
		return Result{}, fmt.Errorf("scenario %s: metrics snapshot: %w", sc.Name, err)
	}

	fps := 0.0
	if generate > 0 {
		fps = float64(len(ds.Flows)) / generate.Seconds()
	}
	allocsPerFlow, allocBytesPerFlow := 0.0, 0.0
	if n := len(out.Flows); n > 0 {
		allocsPerFlow = float64(mem.TotalAllocs) / float64(n)
		allocBytesPerFlow = float64(mem.TotalAllocBytes) / float64(n)
	}
	return Result{
		Scenario:          sc,
		WallSeconds:       wall.Seconds(),
		TimingsSeconds:    m.TimingsSeconds,
		Flows:             len(out.Flows),
		DNS:               len(out.DNS),
		FlowsPerSecond:    fps,
		Workers:           out.Stats.Workers,
		Mem:               mem,
		AllocsPerFlow:     allocsPerFlow,
		AllocBytesPerFlow: allocBytesPerFlow,
		Allocs:            m.Allocs,
		Outputs:           outputs,
		Metrics:           json.RawMessage(bytes.TrimSpace(metrics.Bytes())),
	}, nil
}

// runPepLoadScenario measures a pepload scenario: concurrent split-TCP
// flows through the real tunnel/PEP stack over a scaled-down emulated
// link (20 ms one way, the same shape the pep package's own load tests
// use, so CI stays fast). A fault schedule, when present, is played into
// the live link at high speedup. Leaked tunnel streams after the drain
// fail the scenario outright — that is the harness's core contract.
func runPepLoadScenario(sc Scenario, sched *faults.Schedule) (Result, error) {
	obs.Default.Reset()
	runtime.GC()
	sampler := obs.StartMemSampler(5 * time.Millisecond)
	start := time.Now()
	rep, err := pep.RunLoad(pep.LoadConfig{
		Flows:        sc.PepLoad.Flows,
		Concurrency:  sc.PepLoad.Concurrency,
		Link:         linkemu.Link{Delay: 20 * time.Millisecond, Jitter: 4 * time.Millisecond, Loss: 0.005},
		Tunnel:       tunnel.Config{RTO: 120 * time.Millisecond, Window: 64, MaxPayload: 1200},
		Seed:         sc.Seed,
		Faults:       sched,
		FaultSpeedup: 20000,
		DrainTimeout: 60 * time.Second,
	})
	wall := time.Since(start)
	mem := sampler.Stop()
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if leaked := rep.Leaked(); leaked > 0 {
		return Result{}, fmt.Errorf("scenario %s: %d tunnel streams leaked after drain (cpe=%d gw=%d)",
			sc.Name, leaked, rep.LeakedCPE, rep.LeakedGW)
	}

	var metrics bytes.Buffer
	if err := obs.Default.WriteJSON(&metrics); err != nil {
		return Result{}, fmt.Errorf("scenario %s: metrics snapshot: %w", sc.Name, err)
	}
	return Result{
		Scenario:    sc,
		WallSeconds: wall.Seconds(),
		TimingsSeconds: map[string]float64{
			"load":  rep.Duration.Seconds(),
			"drain": (wall - rep.Duration).Seconds(),
		},
		Flows:          rep.Flows,
		FlowsPerSecond: rep.FlowsPerSecond,
		Workers:        sc.PepLoad.Concurrency,
		Mem:            mem,
		Outputs:        map[string]string{},
		Metrics:        json.RawMessage(bytes.TrimSpace(metrics.Bytes())),
	}, nil
}

// RunMatrix runs every scenario in order and assembles the Report. logf,
// when non-nil, receives one progress line per completed scenario.
func RunMatrix(scs []Scenario, logf func(format string, args ...any)) (*Report, error) {
	r := &Report{
		Schema:  Schema,
		Kind:    Kind,
		Created: time.Now().UTC(),
		Version: obs.Version(),
		Env:     Environment(),
	}
	for _, sc := range scs {
		res, err := RunScenario(sc)
		if err != nil {
			return nil, err
		}
		if logf != nil {
			logf("%-20s %7.2fs  %8d flows  %9.0f flows/s  peak heap %s",
				sc.Name, res.WallSeconds, res.Flows, res.FlowsPerSecond, formatBytes(res.Mem.PeakHeapBytes))
		}
		r.Scenarios = append(r.Scenarios, res)
	}
	return r, nil
}

// VerifyDigests checks the determinism contract inside one report:
// scenarios sharing (customers, days, seed, faults) must have produced
// byte-identical outputs no matter their parallelism. It returns the
// number of equal-output groups checked, or an error naming the first
// divergence.
func (r *Report) VerifyDigests() (groups int, err error) {
	byIdentity := map[string]*Result{}
	for i := range r.Scenarios {
		res := &r.Scenarios[i]
		key := res.Scenario.identity()
		first, ok := byIdentity[key]
		if !ok {
			byIdentity[key] = res
			continue
		}
		for name, want := range first.Outputs {
			if got := res.Outputs[name]; got != want {
				return 0, fmt.Errorf("determinism violation: %s %s digests %s, %s digests %s",
					res.Scenario.Name, name, got, first.Scenario.Name, want)
			}
		}
	}
	return len(byIdentity), nil
}

// DefaultFileName is the conventional artifact name for a report created
// at t: BENCH_<UTC-stamp>.json.
func DefaultFileName(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
}

// WriteFile serializes the report atomically (temp + rename, like every
// other pipeline output).
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	return obs.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// ReadReport parses a BENCH file and validates its schema version.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Kind != Kind {
		return nil, fmt.Errorf("bench: %s is not a %s artifact (kind %q)", path, Kind, r.Kind)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %d, this build understands %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// Table renders the human-readable scenario summary printed on stdout.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %8s %8s %8s %9s %11s %11s %10s  %s\n",
		"scenario", "wall", "pass_a", "pass_b", "flows", "flows/s", "alloc", "allocs/flow", "peak heap", "flows.tsv")
	for i := range r.Scenarios {
		res := &r.Scenarios[i]
		fmt.Fprintf(&sb, "%-20s %7.2fs %7.2fs %7.2fs %8d %9.0f %11s %11.0f %10s  %s\n",
			res.Scenario.Name, res.WallSeconds,
			res.TimingsSeconds["pass_a"], res.TimingsSeconds["pass_b"],
			res.Flows, res.FlowsPerSecond,
			formatBytes(res.Mem.TotalAllocBytes), res.AllocsPerFlow,
			formatBytes(res.Mem.PeakHeapBytes),
			shortDigest(res.Outputs["flows.tsv"]))
	}
	return sb.String()
}

func shortDigest(d string) string {
	d = strings.TrimPrefix(d, "sha256:")
	if len(d) > 12 {
		d = d[:12]
	}
	return d
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Filter keeps the scenarios whose name matches the glob (path.Match
// syntax); an empty glob keeps everything.
func Filter(scs []Scenario, glob string) ([]Scenario, error) {
	if glob == "" {
		return scs, nil
	}
	var out []Scenario
	for _, sc := range scs {
		ok, err := path.Match(glob, sc.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: bad scenario glob %q: %w", glob, err)
		}
		if ok {
			out = append(out, sc)
		}
	}
	return out, nil
}
