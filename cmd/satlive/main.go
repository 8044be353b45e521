// Command satlive is the always-on streaming daemon: it feeds a
// continuous synthetic flow stream through the full model stack in
// simulated real time (default 60 sim-seconds per wall second) and folds
// the resulting records into rolling analytics windows. The stages are
// connected by bounded queues — the generator edge blocks (backpressure),
// the worker and analytics edges shed and count — and a per-stage
// watchdog restarts wedged stages into degraded mode, so the daemon
// survives overload instead of falling over.
//
// -control-addr serves the control plane: the familiar /metrics,
// /progress and /debug/pprof plus /healthz, /readyz, /analytics,
// /trace/recent, /metrics/history, the embedded /dashboard observatory
// and the mutating /control/{rate,faults,scenario} endpoints (see
// OBSERVABILITY.md).
//
// -trace-sample N samples 1 in N flows into the live flight recorder
// (ring + optional -trace DIR rotating JSONL, readable with sattrace).
// -history DIR persists finalized analytics windows to a crash-tolerant
// JSONL log replayed at startup, so a restarted daemon serves the same
// /analytics history and resumes the sim clock past it.
//
// SIGINT/SIGTERM (or -duration elapsing) triggers a graceful drain:
// generation stops, queues empty, trackers flush, analytics windows
// finalize, and the manifest lands with status "partial" (signal) or
// "ok" (duration reached). -soak runs the self-checking soak mode: a
// fixed-length run with an overload phase that exits nonzero on leaked
// goroutines, undrained queues, or unbounded heap growth.
//
// Exit codes: 0 ok, 1 error or failed soak, 2 interrupted (partial).
//
// Usage:
//
//	satlive [-customers 400] [-seed 1] [-constellation geo|leo]
//	        [-faults PRESET|FILE] [-speedup 60] [-workers 4] [-rate 1]
//	        [-window 10m] [-duration 0] [-control-addr 127.0.0.1:0]
//	        [-out DIR] [-metrics FILE] [-trace DIR] [-trace-sample N]
//	        [-history DIR] [-metrics-every 30s]
//	satlive -soak 30s [-faults stress] [...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/live"
	"satwatch/internal/obs"
)

func main() { obs.Main("satlive", run) }

func run() (int, error) {
	customers := flag.Int("customers", 400, "population size")
	seed := flag.Uint64("seed", 1, "deterministic run seed")
	constellation := flag.String("constellation", "geo", "orbit backend: geo or leo")
	faultsArg := flag.String("faults", "", "initial fault schedule (preset name or JSON file)")
	speedup := flag.Float64("speedup", 60, "simulated seconds per wall second")
	workers := flag.Int("workers", 4, "synthesis worker shards")
	rate := flag.Float64("rate", 1, "initial workload rate multiplier")
	window := flag.Duration("window", 10*time.Minute, "analytics window length (simulated)")
	grace := flag.Duration("grace", 10*time.Minute, "late-record grace before a window finalizes (simulated)")
	duration := flag.Duration("duration", 0, "stop after this wall duration (0 = run until signalled)")
	stallTimeout := flag.Duration("stall-timeout", 5*time.Second, "watchdog heartbeat deadline per stage")
	drainTimeout := flag.Duration("drain-timeout", 20*time.Second, "graceful-drain budget before hard abort")
	controlAddr := flag.String("control-addr", "127.0.0.1:0", "control-plane listen address (\"\" disables)")
	outDir := flag.String("out", "", "write manifest.json and windows.json here on exit")
	metricsOut := flag.String("metrics", "", "write a JSON metrics dump here on exit")
	soak := flag.Duration("soak", 0, "run the self-checking soak mode for this wall duration")
	traceDir := flag.String("trace", "", "write sampled flow span trees as rotating JSONL here")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N flows on the streaming path (0 disables, 1 = all)")
	traceFileMB := flag.Int("trace-file-mb", 8, "trace log size cap per file before rotation (MiB)")
	traceKeep := flag.Int("trace-keep", 4, "rotated trace files kept")
	historyDir := flag.String("history", "", "persist finalized windows to a JSONL log here and replay it at startup")
	metricsEvery := flag.Duration("metrics-every", 30*time.Second, "/metrics/history sampling cadence (simulated)")
	flag.Parse()

	if *traceDir != "" && *traceSample <= 0 {
		*traceSample = 100 // -trace alone means "trace, at the default rate"
	}

	// Metrics reflect this run only.
	obs.Default.Reset()
	memSampler := obs.StartMemSampler(time.Second)
	start := time.Now()

	var sched *faults.Schedule
	if *faultsArg != "" {
		var err error
		sched, err = faults.Load(*faultsArg, 1, *seed)
		if err != nil {
			return 0, err
		}
	}
	cfg := live.Config{
		Customers: *customers, Seed: *seed,
		Constellation: *constellation, Faults: sched,
		Speedup: *speedup, Workers: *workers, Rate: *rate,
		Window: *window, Grace: *grace,
		StallTimeout: *stallTimeout, DrainTimeout: *drainTimeout,
		TraceSample: *traceSample, TraceDir: *traceDir,
		TraceFileMaxBytes: int64(*traceFileMB) << 20, TraceKeepFiles: *traceKeep,
		HistoryDir:   *historyDir,
		MetricsEvery: *metricsEvery,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	if *soak > 0 {
		return runSoak(cfg, *soak, *outDir, *metricsOut)
	}

	// First SIGINT/SIGTERM drains gracefully; a second one kills the
	// process. Installed before the (slow) pipeline build so a signal
	// during startup still exits through the drain path instead of the
	// default handler.
	ctx, stop := obs.SignalContext()
	defer stop()

	p, err := live.New(cfg)
	if err != nil {
		return 0, err
	}

	if *controlAddr != "" {
		bound, stopSrv, err := obs.StartServer(*controlAddr, live.ControlHandler(p, obs.Default))
		if err != nil {
			return 0, err
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "satlive: control plane on http://%s\n", bound)
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	runErr := p.Run(ctx)
	// A signal cancels with Canceled; the -duration timeout surfaces as
	// DeadlineExceeded — only the former is "partial".
	interrupted := ctx.Err() == context.Canceled
	stop()

	status := "ok"
	code := 0
	switch {
	case interrupted:
		status = "partial"
		code = 2
	case runErr != nil:
		status = "degraded"
	}
	if d, _ := p.Degraded(); d && status == "ok" {
		status = "degraded"
	}
	mem := memSampler.Stop()
	if err := writeOutputs(p, cfg, *outDir, *metricsOut, status, time.Since(start), mem); err != nil {
		return 0, err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "satlive:", runErr)
	}
	pr := p.Progress()
	fmt.Fprintf(os.Stderr, "satlive: %s after %s wall (%.0f sim-seconds): %d intents, %d flow records, %d dns records, %d windows\n",
		status, time.Since(start).Round(time.Millisecond), pr.SimSeconds,
		pr.Intents, pr.FlowRecords, pr.DNSRecords, pr.Windows)
	return code, nil
}

// writeOutputs lands the manifest, the finalized analytics windows, and
// the metrics dump. Everything is written atomically so a kill mid-write
// never leaves a truncated file at its final name.
func writeOutputs(p *live.Pipeline, cfg live.Config, outDir, metricsOut, status string, wall time.Duration, mem obs.MemInfo) error {
	var outputs []string
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		windows := filepath.Join(outDir, "windows.json")
		if err := obs.WriteFileAtomic(windows, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(p.Analytics().Recent())
		}); err != nil {
			return err
		}
		outputs = append(outputs, windows)
	}
	if metricsOut != "" {
		if err := obs.DumpMetrics(metricsOut); err != nil {
			return err
		}
		outputs = append(outputs, metricsOut)
	}
	if outDir == "" {
		return nil
	}
	m := obs.NewManifest("satlive", cfg.Seed)
	m.Parallelism = cfg.Workers
	m.Config = cfg
	m.Status = status
	if sched := p.Sim().Faults(); sched != nil {
		m.Faults = sched
	}
	if _, reason := p.Degraded(); reason != "" {
		m.Errors = append(m.Errors, reason)
	}
	m.AddTiming("run", wall)
	m.Mem = &mem
	for _, path := range outputs {
		if err := m.AddOutput(path); err != nil {
			return err
		}
	}
	return m.Write(outDir)
}

// runSoak drives the self-checking soak mode and reports the verdict.
func runSoak(cfg live.Config, dur time.Duration, outDir, metricsOut string) (int, error) {
	rep, err := live.Soak(cfg, dur)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return 0, err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return 0, err
		}
	}
	if metricsOut != "" {
		if err := obs.DumpMetrics(metricsOut); err != nil {
			return 0, err
		}
	}
	if outDir != "" {
		if err := obs.WriteFileAtomic(filepath.Join(outDir, "soak.json"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return 0, err
		}
	}
	if !rep.OK() {
		return 0, fmt.Errorf("soak failed: %v %s", rep.Failures, rep.DrainErr)
	}
	fmt.Fprintf(os.Stderr, "satlive: soak ok: %d intents, %d flow records, %d windows, goroutines %d→%d\n",
		rep.Progress.Intents, rep.Progress.FlowRecords, rep.Progress.Windows,
		rep.GoroutinesBefore, rep.GoroutinesAfter)
	return 0, nil
}
