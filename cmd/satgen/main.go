// Command satgen generates synthetic SatCom deployment traces: anonymized
// Tstat-style flow/DNS logs from the full simulator, with the operator's
// customer, prefix and beam tables (the five logs satreport -from reads),
// and a small pcap capture of a sample of the run's own flows (-pcap-flows,
// 0 disables; written only when the run completed ok): the sampled flows
// re-synthesized and rendered to decodable wire packets, stamped from
// 00:00 UTC of simulated day 0 like the logs, so satprobe replaying
// sample.pcap reproduces those flows' log rows.
//
// Every run writes a manifest.json next to its outputs (config, seed,
// version, per-stage timings, output digests, run status) so runs are
// comparable and reproducible; -metrics dumps the full metrics registry,
// -progress streams a live status line to stderr, -trace records
// per-flow latency span trees for sampled flows, -faults plays back a
// deterministic fault schedule, and -debug-addr serves /metrics,
// /progress and /debug/pprof live (see OBSERVABILITY.md).
//
// Outputs are written atomically (temp file + rename) and a manifest with
// status "partial" is put down before the simulation starts, so a killed
// run leaves either complete files or none, under a manifest that says
// so. SIGINT stops the run at the next customer boundary and flushes
// whatever completed; a second SIGINT kills immediately.
//
// Exit codes: 0 on success, 1 on error, 2 when the run completed
// degraded or partial (outputs exist but are incomplete).
//
// Usage:
//
//	satgen -out DIR [-customers 200] [-days 1] [-seed 1] [-parallelism 0]
//	       [-constellation geo|leo]
//	       [-faults FILE|PRESET] [-pcap-flows 50] [-metrics FILE]
//	       [-progress] [-trace FILE] [-trace-sample 100]
//	       [-debug-addr :6060] [-debug-linger 0s] [-profile DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/obs"
	"satwatch/internal/prof"
	"satwatch/internal/trace"
)

func main() { obs.Main("satgen", run) }

func run() (int, error) {
	out := flag.String("out", "trace", "output directory")
	customers := flag.Int("customers", 200, "population size")
	days := flag.Int("days", 1, "observation window in days")
	seed := flag.Uint64("seed", 1, "deterministic run seed")
	constellation := flag.String("constellation", "geo", "constellation backend ("+strings.Join(geo.ConstellationNames(), ", ")+")")
	parallelism := flag.Int("parallelism", 0, "simulation workers, both passes (0 = GOMAXPROCS); output is identical at any value")
	faultsArg := flag.String("faults", "", "fault schedule: a JSON file or a preset ("+strings.Join(faults.PresetNames(), ", ")+")")
	pcapFlows := flag.Int("pcap-flows", 50, "flows of the run sampled into sample.pcap (0 disables)")
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

	// First SIGINT/SIGTERM cancels the run gracefully (workers stop at the
	// next customer boundary, logs and manifest are flushed); a second one
	// kills the process.
	ctx, stop := obs.SignalContext()
	defer stop()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 0, err
	}

	// Put down a status-partial manifest before simulating: if the
	// process dies at any point, the directory says the run is
	// incomplete. The real manifest atomically replaces it at the end.
	early := obs.NewManifest("satgen", *seed)
	early.Status = netsim.StatusPartial
	if sched != nil {
		early.Faults = sched
	}
	if err := early.Write(*out); err != nil {
		return 0, err
	}

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
		// No writer: the tracer sorts at the end, into CloseFile.
		tracer = trace.New(nil, *traceSample)
	}

	cfg := netsim.Config{Customers: *customers, Days: *days, Seed: *seed,
		Constellation: *constellation, Parallelism: *parallelism,
		Trace: tracer, Faults: sched}
	sim, err := netsim.RunContext(ctx, cfg)
	if err != nil {
		return 0, err
	}
	manifest := netsim.ManifestFor("satgen", cfg, sim)

	writeStart := time.Now()
	outputs, err := netsim.WriteLogs(*out, sim)
	if err != nil {
		return 0, err
	}
	fmt.Printf("wrote %s (%d flows), %s (%d DNS transactions), %s\n",
		outputs[0], len(sim.Flows), outputs[1], len(sim.DNS), strings.Join(outputs[2:], ", "))

	manifest.AddTiming("write", time.Since(writeStart))

	if tracer != nil {
		traced := tracer.Len()
		if err := tracer.CloseFile(*traceOut); err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %s (%d traced flows, 1 in %d)\n", *traceOut, traced, tracer.SampleN())
		manifest.AddTrace(*traceOut, tracer.SampleN())
	}

	if *metricsOut != "" {
		if err := obs.DumpMetrics(*metricsOut); err != nil {
			return 0, fmt.Errorf("metrics dump: %w", err)
		}
		outputs = append(outputs, *metricsOut)
	}

	// After the metrics dump: the sample is re-synthesized through the
	// run's models, whose counters would count its customers twice. A run
	// that dropped customers gets no sample: it could hold flows the logs
	// lack.
	if *pcapFlows > 0 && sim.Stats.Status() == netsim.StatusOK {
		pcapStart := time.Now()
		pcapPath := filepath.Join(*out, "sample.pcap")
		var packets, flows int
		if err := obs.WriteFileAtomic(pcapPath, func(w io.Writer) error {
			var werr error
			packets, flows, werr = sim.WritePcap(w, *pcapFlows)
			return werr
		}); err != nil {
			return 0, err
		}
		fmt.Printf("wrote %s (%d packets, %d sampled flows)\n", pcapPath, packets, flows)
		outputs = append(outputs, pcapPath)
		manifest.AddTiming("pcap", time.Since(pcapStart))
	}

	for _, p := range outputs {
		if err := manifest.AddOutput(p); err != nil {
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
	if err := manifest.Write(*out); err != nil {
		return 0, err
	}
	fmt.Printf("wrote %s\n", filepath.Join(*out, obs.ManifestName))

	if st := sim.Stats.Status(); st != netsim.StatusOK {
		fmt.Fprintf(os.Stderr, "satgen: run %s: %d/%d customers salvaged, %d errors\n",
			st, sim.Stats.CustomersDone, *customers, len(sim.Stats.Errors))
		return 2, nil
	}
	return 0, nil
}
