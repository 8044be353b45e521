// Command satreport runs the full reproduction pipeline and prints every
// table and figure of the paper's evaluation, optionally exporting the
// run's four logs (-logs: flows.tsv, dns.tsv, meta.tsv, prefixes.tsv —
// what -from reads back) and the ERRANT emulation profiles.
//
// Simulated runs write a manifest.json next to their outputs (config,
// seed, version, per-stage timings, output digests, run status);
// -metrics dumps the full metrics registry, -progress streams a live
// status line to stderr, -trace records per-flow latency span trees for
// sampled flows, -faults plays back a deterministic fault schedule, and
// -debug-addr serves /metrics, /progress and /debug/pprof live (see
// OBSERVABILITY.md).
//
// Replay (-from, -live-history) tolerates corrupt log lines by default —
// they are skipped, counted (netsim_rows_skipped_total) and reported, the
// salvage path for logs out of an interrupted run (DESIGN.md §7). -strict
// fails on the first one instead, naming it.
//
// Exit codes: 0 on success, 1 on error, 2 when the analysis ran on
// incomplete data (degraded/interrupted simulation, or skipped rows in
// replay).
//
// Usage:
//
//	satreport [-customers 400] [-days 2] [-seed 1] [-parallelism 0]
//	          [-constellation geo|leo]
//	          [-faults FILE|PRESET] [-logs DIR] [-from DIR] [-strict]
//	          [-errant] [-metrics FILE] [-progress]
//	          [-trace FILE] [-trace-sample 100]
//	          [-debug-addr :6060] [-debug-linger 0s] [-profile DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"satwatch"
	"satwatch/internal/analytics"
	"satwatch/internal/errant"
	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/live"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
	"satwatch/internal/prof"
	"satwatch/internal/trace"
)

func main() { obs.Main("satreport", run) }

func run() (int, error) {
	customers := flag.Int("customers", 400, "population size")
	days := flag.Int("days", 2, "observation window in days")
	seed := flag.Uint64("seed", 1, "deterministic run seed")
	constellation := flag.String("constellation", "geo", "constellation backend ("+strings.Join(geo.ConstellationNames(), ", ")+")")
	parallelism := flag.Int("parallelism", 0, "simulation workers, both passes (0 = GOMAXPROCS); output is identical at any value")
	intentCacheMB := flag.Int("intent-cache-mb", 0, "pass-A intent cache budget in MiB (0 = 512, negative disables)")
	faultsArg := flag.String("faults", "", "fault schedule: a JSON file or a preset ("+strings.Join(faults.PresetNames(), ", ")+")")
	logsDir := flag.String("logs", "", "directory to write flows.tsv, dns.tsv, meta.tsv and prefixes.tsv into")
	fromDir := flag.String("from", "", "re-analyze saved logs (flows.tsv/dns.tsv/meta.tsv/prefixes.tsv) instead of simulating")
	liveHistory := flag.String("live-history", "", "replay a satlive -history window log (file or directory) into report tables instead of simulating")
	strict := flag.Bool("strict", false, "fail on the first corrupt log line in -from replay instead of skipping it")
	errantOut := flag.Bool("errant", false, "also print ERRANT-style emulation profiles")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump to this file after the run")
	progress := flag.Bool("progress", false, "print a live progress line to stderr every 2s")
	traceOut := flag.String("trace", "", "write per-flow latency span trees (JSONL) to this file")
	traceSample := flag.Int("trace-sample", 100, "trace 1 in N flows (1 = every flow)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /progress and /debug/pprof on this address")
	debugLinger := flag.Duration("debug-linger", 0, "keep the debug server up this long after the run completes")
	profileDir := flag.String("profile", "", "capture cpu/heap/goroutine/block profiles into this directory")
	flag.Parse()

	// Metrics are cleared at run start so every dump and debug endpoint
	// reflects this run only, not process-lifetime totals.
	obs.Default.Reset()

	if *liveHistory != "" {
		return runLiveHistory(*liveHistory, *strict, *metricsOut)
	}

	memSampler := obs.StartMemSampler(0)
	start := time.Now()

	capture, err := prof.StartCapture(*profileDir)
	if err != nil {
		return 0, err
	}
	defer capture.Stop()

	sched, err := faults.Load(*faultsArg, *days, *seed)
	if err != nil {
		return 0, err
	}

	// First SIGINT/SIGTERM cancels the run gracefully; the second kills.
	ctx, stop := obs.SignalContext()
	defer stop()

	stopDebug, err := obs.ServeDebug(*debugAddr, *debugLinger, func() any {
		return netsim.CurrentProgress(time.Since(start))
	})
	if err != nil {
		return 0, err
	}
	defer stopDebug()

	if *progress {
		stopProgress := obs.StartProgress(os.Stderr, 2*time.Second, netsim.ProgressLine)
		defer stopProgress()
	}

	var tracer *trace.Tracer
	if *traceOut != "" {
		if *fromDir != "" {
			return 0, fmt.Errorf("-trace requires a simulated run, not -from")
		}
		// No writer: the tracer sorts at the end, into CloseFile.
		tracer = trace.New(nil, *traceSample)
	}

	p := satwatch.New(
		satwatch.WithCustomers(*customers),
		satwatch.WithDays(*days),
		satwatch.WithSeed(*seed),
		satwatch.WithConstellation(*constellation),
		satwatch.WithParallelism(*parallelism),
		satwatch.WithIntentCacheBytes(int64(*intentCacheMB)<<20),
		satwatch.WithTracer(tracer),
		satwatch.WithFaults(sched),
	)
	var res *satwatch.Results
	skipped := 0
	if *fromDir != "" {
		res, skipped, err = replay(p, *fromDir, *days, *strict)
	} else {
		res, err = p.RunContext(ctx)
	}
	if err != nil {
		return 0, err
	}
	fmt.Print(res.RenderAll())
	fmt.Println(res.Signatures.Render())
	fmt.Printf("— %d flows, %d DNS transactions, %d customers, %v —\n",
		len(res.Dataset.Flows), len(res.Dataset.DNS), len(res.Output.Meta), time.Since(start).Round(time.Millisecond))

	if *errantOut {
		fmt.Println()
		fmt.Print(errant.Render(errant.BuildProfiles(res.Dataset), "eth0"))
	}

	var outputs []string
	if *logsDir != "" {
		if err := os.MkdirAll(*logsDir, 0o755); err != nil {
			return 0, err
		}
		if outputs, err = netsim.WriteLogs(*logsDir, res.Output); err != nil {
			return 0, err
		}
		fmt.Printf("logs written to %s\n", *logsDir)
	}

	if *metricsOut != "" {
		if err := obs.DumpMetrics(*metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		outputs = append(outputs, *metricsOut)
	}

	if tracer != nil {
		traced := tracer.Len()
		if err := tracer.CloseFile(*traceOut); err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %s (%d traced flows, 1 in %d)\n", *traceOut, traced, tracer.SampleN())
	}

	// Replayed logs carry their producer's manifest; only simulated runs
	// write a fresh one, next to the logs when exported, else in the
	// working directory.
	if *fromDir == "" {
		manifest := netsim.ManifestFor("satreport", p.Config(), res.Output)
		manifest.AddTiming("total", time.Since(start))
		if tracer != nil {
			manifest.AddTrace(*traceOut, tracer.SampleN())
		}
		for _, path := range outputs {
			if err := manifest.AddOutput(path); err != nil {
				return 0, err
			}
		}
		mem := memSampler.Stop()
		manifest.Mem = &mem
		if capture != nil {
			info, err := capture.Stop()
			if err != nil {
				return 0, err
			}
			manifest.Profiles = &info
			fmt.Printf("wrote profiles to %s (%s)\n", info.Dir, strings.Join(prof.ArtifactNames(), ", "))
		}
		dir := *logsDir
		if dir == "" {
			dir = "."
		}
		if err := manifest.Write(dir); err != nil {
			return 0, err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, obs.ManifestName))
	}

	if code := obs.SalvageExit("satreport", "log", skipped); code != 0 {
		return code, nil
	}
	if *fromDir == "" {
		if st := res.Output.Stats.Status(); st != netsim.StatusOK {
			fmt.Fprintf(os.Stderr, "satreport: run %s: %d/%d customers salvaged, %d errors\n",
				st, res.Output.Stats.CustomersDone, *customers, len(res.Output.Stats.Errors))
			return 2, nil
		}
	}
	return 0, nil
}

// runLiveHistory replays a satlive window-history log into the standard
// report tables: the offline view of what the daemon's /analytics
// served. path may be the log file itself or a -history directory.
// Unless strict, corrupt lines (a crash-truncated tail) are skipped and
// counted, exiting 2 like every other salvage path.
func runLiveHistory(path string, strict bool, metricsOut string) (int, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, live.HistoryFileName)
	}
	ws, st, err := live.ReadHistoryFile(path)
	if err != nil {
		return 0, err
	}
	if strict && st.First != nil {
		return 0, fmt.Errorf("%s: %w", path, st.First)
	}
	fmt.Print(live.RenderHistory(ws))
	if metricsOut != "" {
		if err := obs.DumpMetrics(metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
	}
	return obs.SalvageExit("satreport", "history", st.Skipped), nil
}

// replay rebuilds the analysis from logs previously written by satgen or
// satreport -logs. Figure 8b needs the simulator's live beam-load
// statistics and is empty in replay mode.
func replay(p *satwatch.Pipeline, dir string, days int, strict bool) (*satwatch.Results, int, error) {
	out, skipped, err := netsim.ReadLogs(dir, strict)
	if err != nil {
		return nil, 0, err
	}
	return p.Analyze(out, analytics.NewDataset(out, days)), skipped, nil
}
