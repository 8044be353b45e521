package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Result is what one run of one workload produced. With tracing off
// Metrics holds every end-to-end metric, with tracing on every per-layer
// metric; nothing else is ever in it.
type Result struct {
	Workload    string          `json:"workload"`
	Traced      bool            `json:"traced"`
	Fingerprint Fingerprint     `json:"fingerprint"`
	Correct     bool            `json:"correct"`
	Attempted   int64           `json:"attempted"`
	Failed      int64           `json:"failed"`
	Metrics     map[string]Stat `json:"metrics"`
	// Budget is the traced run's per-layer self-time table.
	Budget *layerBudget `json:"budget,omitempty"`
	// Notes are the per-workload facts a reader needs beside the numbers
	// (reps run, flows per rep, simulated span).
	Notes map[string]float64 `json:"notes,omitempty"`
}

func newResult(workload string, traced bool, fp Fingerprint) *Result {
	r := &Result{Workload: workload, Traced: traced, Fingerprint: fp, Metrics: map[string]Stat{}, Notes: map[string]float64{}}
	if traced {
		for _, d := range perLayer {
			r.Metrics[d.Name] = Stat{Unit: d.Unit}
		}
	}
	return r
}

// set records a metric from its in-run samples, under its declared unit.
func (r *Result) set(name string, samples ...float64) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	d, ok := findMetric(defs, name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics[name] = stat(d.Unit, samples...)
}

// setOK derives ok_ratio from the attempted/failed counts.
func (r *Result) setOK() {
	r.set("ok_ratio", float64(r.Attempted-r.Failed)/float64(r.Attempted))
}

// complete lists the declared metrics the result lacks and the ones it
// carries undeclared — both must be empty before anything is printed.
func (r *Result) complete() []string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	var errs []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			errs = append(errs, "missing "+d.Name)
		}
	}
	for name := range r.Metrics {
		if _, ok := findMetric(defs, name); !ok {
			errs = append(errs, "undeclared "+name)
		}
	}
	return errs
}

// driverLine is the one JSON object the PR driver reads from the last line
// of standard output.
func (r *Result) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// Report is the file `all` and `trace` write: one Result per workload.
type Report struct {
	Kind        string      `json:"kind"` // "end_to_end" or "per_layer"
	Fingerprint Fingerprint `json:"fingerprint"`
	Workloads   []*Result   `json:"workloads"`
}

// benchDir finds the benchmark's own directory from wherever the program
// was started: the repository root (go build, then run) or the directory
// itself (go run -C benchmark).
func benchDir() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module satwatch/benchmark\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/: no satwatch/benchmark go.mod found")
}
