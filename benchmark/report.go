package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// verdict is one end-to-end metric of one workload held against its bound.
type verdict struct {
	Workload, Metric string
	Base, Cur        float64
	Worse, Bound     float64
	Regressed        bool
}

// compareReports holds every end-to-end median of cur against base by the
// declared bounds. Reports from different boxes, seeds or run lengths
// refuse to compare.
func compareReports(base, cur *Report) ([]verdict, error) {
	if base.Kind != "end_to_end" || cur.Kind != "end_to_end" {
		return nil, fmt.Errorf("only end_to_end reports compare (got %s, %s)", base.Kind, cur.Kind)
	}
	if why := base.Fingerprint.comparable(cur.Fingerprint); why != "" {
		return nil, fmt.Errorf("refusing to compare: %s", why)
	}
	var out []verdict
	for _, b := range base.Workloads {
		for _, c := range cur.Workloads {
			if b.Workload != c.Workload {
				continue
			}
			for _, d := range endToEnd {
				v := verdict{
					Workload: b.Workload, Metric: d.Name, Bound: d.Bound,
					Base: b.Metrics[d.Name].Value, Cur: c.Metrics[d.Name].Value,
				}
				v.Worse = worseBy(v.Base, v.Cur, d.Better)
				v.Regressed = regressed(v.Base, v.Cur, d.Better, d.Bound)
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two reports share no workload")
	}
	return out, nil
}

// printVerdicts prints each metric's run-to-run change beside its bound,
// so a bound that is too tight or too loose shows, and returns an error
// naming every metric that exceeded its bound.
func printVerdicts(vs []verdict) error {
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	var bad []string
	for _, v := range vs {
		mark := ""
		if v.Regressed {
			mark = "  REGRESSED"
			bad = append(bad, v.Metric+" on "+v.Workload)
		}
		fmt.Printf("%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
			v.Workload, v.Metric, v.Base, v.Cur, 100*v.Worse, 100*v.Bound, mark)
	}
	if len(bad) > 0 {
		return fmt.Errorf("beyond the declared bound: %s", strings.Join(bad, "; "))
	}
	return nil
}

// selfcheck runs the end-to-end benchmark twice on the same tree: two sets
// of runs of the same code must agree within the benchmark's own bounds.
func selfcheck(only string, seed uint64, seconds float64) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	var reps [2]*Report
	for i := range reps {
		out := filepath.Join(dir, "out", fmt.Sprintf("selfcheck-%d.json", i+1))
		if reps[i], err = runAll(false, only, seed, seconds, out, false); err != nil {
			return err
		}
	}
	vs, err := compareReports(reps[0], reps[1])
	if err != nil {
		return err
	}
	return printVerdicts(vs)
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("compare takes two report files")
	}
	var base, cur Report
	if err := readJSON(paths[0], &base); err != nil {
		return err
	}
	if err := readJSON(paths[1], &cur); err != nil {
		return err
	}
	vs, err := compareReports(&base, &cur)
	if err != nil {
		return err
	}
	return printVerdicts(vs)
}

// layersMarkdown renders a per-layer report as the budget table: for each
// workload the layers' self times per traced op and their share of it,
// then every per-layer metric the workload's layers produced.
func layersMarkdown(rep *Report) string {
	var sb strings.Builder
	fp := rep.Fingerprint
	fmt.Fprintf(&sb, "# Per-layer budget\n\n%s, %d CPUs (P=%d), %s, kernel %s, seed %d, %d s runs, commit %s.\n",
		fp.CPUModel, fp.NumCPU, fp.P, fp.GoVersion, fp.Kernel, fp.Seed, fp.Seconds, fp.Commit)
	sb.WriteString("Self time = a span's duration minus what its child spans cover; `bench` is the harness between calls.\n")
	for _, r := range rep.Workloads {
		pct := func(layer string) float64 { return 100 * r.Metrics[layer+".self_share"].Value }
		switch r.Workload {
		case wlBatchCold:
			fmt.Fprintf(&sb, "\n**What fraction of a cold run is MAC micro-simulation?** %.0f %% (netsim %.0f %%, everything after the simulator %.0f %%).\n",
				pct("mac"), pct("netsim"), pct("tstat")+pct("analytics")+pct("report"))
		case wlBatchWarm:
			fmt.Fprintf(&sb, "\n**What fraction of a warm run is tstat encode / analytics / report?** %.0f %% / %.0f %% / %.0f %% (netsim %.0f %%, MAC %.1f %%).\n",
				pct("tstat"), pct("analytics"), pct("report"), pct("netsim"), pct("mac"))
		}
	}
	for _, r := range rep.Workloads {
		fmt.Fprintf(&sb, "\n## %s\n\n", r.Workload)
		if b := r.Budget; b != nil && b.Ops > 0 {
			fmt.Fprintf(&sb, "%d traced op(s), %.3f s wall each.\n\n| layer | self s/op | share |\n|---|---|---|\n",
				b.Ops, b.Wall.Seconds()/float64(b.Ops))
			layers := make([]string, 0, len(b.Layer))
			for l := range b.Layer {
				layers = append(layers, l)
			}
			sort.Slice(layers, func(i, j int) bool { return b.Layer[layers[i]] > b.Layer[layers[j]] })
			var sum time.Duration
			for _, l := range layers {
				sum += b.Layer[l]
				fmt.Fprintf(&sb, "| %s | %.4f | %.1f %% |\n", l, b.Layer[l].Seconds()/float64(b.Ops), 100*b.share(l))
			}
			fmt.Fprintf(&sb, "| sum | %.4f | %.1f %% |\n", sum.Seconds()/float64(b.Ops), 100*float64(sum)/float64(b.Wall))
		}
		sb.WriteString("\n| metric | value | unit | n | should move |\n|---|---|---|---|---|\n")
		for _, d := range perLayer {
			if s := r.Metrics[d.Name]; s.N > 0 {
				fmt.Fprintf(&sb, "| %s | %.6g | %s | %d | %s |\n", d.Name, s.Value, s.Unit, s.N, d.Moves)
			}
		}
	}
	return sb.String()
}
