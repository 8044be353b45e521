package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"satwatch/internal/live"
	"satwatch/internal/obs"
	"satwatch/internal/trace"
)

const (
	liveCustomers = 400
	liveSpeedup   = 3600 // one wall second is one simulated hour
	// liveLookahead is live.Config's default: how far ahead of the clock
	// the generator may admit.
	liveLookahead = 30 * time.Second
	// liveSetups is how many times a live run sets up (itself plus fresh
	// child processes, each with an empty MAC cell cache).
	liveSetups = 3
)

// liveConfig is the daemon configuration of a live workload. Steady gets
// queues deep enough that no burst sheds; overload keeps the defaults and
// offers 5×P times the population's traffic.
func liveConfig(workload, traceDir string) live.Config {
	cfg := live.Config{
		Customers: liveCustomers, Seed: deploymentSeed, Speedup: liveSpeedup, Rate: 1, Workers: workers(),
	}
	if workload == wlLiveSteady {
		cfg.WorkerDepth, cfg.RecordDepth = 16384, 131072
	} else {
		cfg.Rate = float64(5 * workers())
	}
	if traceDir != "" {
		cfg.TraceSample, cfg.TraceDir = 20, traceDir
	}
	return cfg
}

// liveRun is one pipeline lifetime as seen from outside.
type liveRun struct {
	Setup     time.Duration
	Cost      cost // over Run: the paced section and the drain
	Drain     time.Duration
	GenLag    time.Duration // wall time the generator ended behind schedule
	SimHours  float64       // simulated time the pipeline carried
	CadenceMS []float64     // wall gaps between window finalizations
	Windows   int

	Intents, SynthPushed, SynthShed, SynthErrors float64
	RecordsPushed, RecordsShed, Late             float64
	HighIntents, HighSynth, HighRecords          float64
}

// runLive builds a pipeline, runs it for the given wall time, drains it
// and applies the validity rules. t may be nil.
func runLive(cfg live.Config, seconds float64, t *tracer) (*liveRun, error) {
	obs.Default.Reset()
	goroutines := runtime.NumGoroutine()
	r := &liveRun{}

	root := t.open(0, 0, "live", "bench")
	start := time.Now()
	p, err := live.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("live.New: %w", err)
	}
	r.Setup = time.Since(start)
	t.add(root, 0, "live.New", "live", start, start.Add(r.Setup), false)

	var (
		mu        sync.Mutex
		finalized []time.Time
		windowed  int64
	)
	p.Analytics().OnFinalize(func(s live.WindowSummary) {
		mu.Lock()
		finalized = append(finalized, time.Now())
		windowed += s.Flows + s.DNS
		mu.Unlock()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1) // one send, by the goroutine below
	begin := readUsage()
	go func() { done <- p.Run(ctx) }()
	var runErr error
	select {
	case runErr = <-done:
		return nil, fmt.Errorf("live.Run ended before it was cancelled: %v", runErr)
	case <-time.After(time.Duration(seconds * float64(time.Second))):
	}
	clockAtCancel, cancelled := p.Clock().Now(), time.Now()
	cancel()
	runErr = <-done
	end := readUsage()
	r.Cost, r.Drain = end.since(begin), end.at.Sub(cancelled)
	run := t.add(root, 0, "Pipeline.Run", "live", begin.at, end.at, false)
	t.add(run, 0, "Pipeline.Run drain", "live", cancelled, end.at, true)
	t.close(root)
	if runErr != nil {
		return nil, fmt.Errorf("live.Run: %w", runErr)
	}

	watermark := p.Analytics().Watermark()
	r.SimHours = watermark.Hours()
	r.GenLag = time.Duration(float64(clockAtCancel+liveLookahead-watermark) / liveSpeedup)
	prev := time.Time{}
	for _, at := range finalized {
		if at.After(cancelled) {
			break // the drain finalizes every open window at once
		}
		if !prev.IsZero() {
			r.CadenceMS = append(r.CadenceMS, float64(at.Sub(prev).Microseconds())/1000)
		}
		prev = at
	}
	r.Windows = len(finalized)

	r.Intents = counter("live_intents_total")
	r.SynthPushed, r.SynthShed = counter("live_q_synth_pushed_total"), counter("live_q_synth_shed_total")
	r.SynthErrors = counter("live_synth_errors_total")
	r.RecordsPushed, r.RecordsShed = counter("live_q_records_pushed_total"), counter("live_q_records_shed_total")
	r.Late = counter("live_analytics_late_records_total")
	r.HighIntents, r.HighSynth = counter("live_q_intents_highwater"), counter("live_q_synth_highwater")
	r.HighRecords = counter("live_q_records_highwater")

	// Goroutines unwind asynchronously after the drain; let them settle.
	leaked := 0
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		leaked = runtime.NumGoroutine() - goroutines
		if leaked <= 2 || time.Now().After(deadline) {
			break
		}
	}
	prog := p.Progress()
	return r, checkLive(liveFacts{
		Degraded: prog.Degraded, Reason: prog.Reason,
		QueueIntents: prog.QueueDepths.Intents, QueueSynth: prog.QueueDepths.Synth, QueueRecords: prog.QueueDepths.Records,
		LeakedGoroutines: leaked,
		Intents:          int64(r.Intents), SynthPushed: int64(r.SynthPushed), SynthShed: int64(r.SynthShed),
		Windowed: windowed, Late: int64(r.Late), RecordsAdmitted: prog.FlowRecords + prog.DNSRecords,
		CadenceSamples: len(r.CadenceMS),
	})
}

// liveFacts is what the live validity rules look at.
type liveFacts struct {
	Degraded                               bool
	Reason                                 string
	QueueIntents, QueueSynth, QueueRecords int
	LeakedGoroutines                       int
	Intents, SynthPushed, SynthShed        int64
	Windowed, Late, RecordsAdmitted        int64
	CadenceSamples                         int
}

// checkLive: a live run is invalid if it ended degraded, left anything
// queued or more than two goroutines behind, or lost track of an item —
// every intent is either handed to a worker or shed, and every admitted
// record is either in a finalized window or counted late.
func checkLive(f liveFacts) error {
	switch {
	case f.Degraded:
		return fmt.Errorf("live run ended degraded: %s", f.Reason)
	case f.QueueIntents+f.QueueSynth+f.QueueRecords != 0:
		return fmt.Errorf("queues not drained: intents=%d synth=%d records=%d", f.QueueIntents, f.QueueSynth, f.QueueRecords)
	case f.LeakedGoroutines > 2:
		return fmt.Errorf("%d goroutines outlived the drain", f.LeakedGoroutines)
	case f.Intents == 0:
		return fmt.Errorf("no intent admitted: the pipeline never moved")
	case f.Intents != f.SynthPushed+f.SynthShed:
		return fmt.Errorf("intent conservation: %d admitted, %d pushed + %d shed", f.Intents, f.SynthPushed, f.SynthShed)
	case f.Windowed+f.Late != f.RecordsAdmitted:
		return fmt.Errorf("record conservation: %d in windows + %d late, %d admitted", f.Windowed, f.Late, f.RecordsAdmitted)
	case f.CadenceSamples < 2:
		return fmt.Errorf("only %d window gaps observed: run too short to time the cadence", f.CadenceSamples)
	}
	return nil
}

// countIntents is the live failure count: an intent whose synthesis
// failed, out of every intent admitted. On live-steady the deep queues make
// bursts lossless, so anything shed on any edge is a failure too; on
// live-overload shedding is the declared policy and is reported per layer.
func countIntents(res *Result, r *liveRun) {
	res.Attempted += int64(r.Intents)
	failed := int64(r.SynthErrors)
	if res.Workload == wlLiveSteady {
		failed += int64(r.SynthShed + r.RecordsShed)
	}
	res.Failed += min(int64(r.Intents), failed)
}

// liveSetupChild measures live.New in a fresh process (empty cell cache).
func liveSetupChild(workload string) (seconds float64, err error) {
	err = runChild(&seconds, "live-setup", "-workload", workload)
	return seconds, err
}

func childLiveSetup(workload string) error {
	start := time.Now()
	if _, err := live.New(liveConfig(workload, "")); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(time.Since(start).Seconds())
}

// runLiveWorkload is both live workloads. Work is counted in intents
// accepted onto worker shards (what the daemon actually synthesized).
func runLiveWorkload(res *Result, _ uint64, seconds float64) error {
	if !res.Traced {
		r, err := runLive(liveConfig(res.Workload, ""), seconds, nil)
		if err != nil {
			return err
		}
		setups := []float64{r.Setup.Seconds()}
		for len(setups) < liveSetups {
			s, err := liveSetupChild(res.Workload)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		res.set("setup_s", setups...)
		res.set("run_s", r.Cost.Wall.Seconds()/r.SimHours)
		res.set("flows_per_s", r.SynthPushed/r.Cost.Wall.Seconds())
		res.set("cpu_us_per_flow", float64(r.Cost.CPU.Microseconds())/r.SynthPushed)
		res.set("allocs_per_flow", float64(r.Cost.Mallocs)/r.SynthPushed)
		res.set("alloc_bytes_per_flow", float64(r.Cost.Bytes)/r.SynthPushed)
		sort.Float64s(r.CadenceMS)
		res.set("xfer_p95_ms", tail(r.CadenceMS))
		res.set("xfer_p50_ms", r.CadenceMS...)
		countIntents(res, r)
		res.setOK()
		res.Notes["sim_hours"], res.Notes["windows"] = r.SimHours, float64(r.Windows)
		return setPeakRSS(res)
	}

	// Traced run: the same pipeline twice in this process, first plain,
	// then with the daemon's flight recorder on (1 flow in 20, to disk).
	dir, err := benchDir()
	if err != nil {
		return err
	}
	traceDir := filepath.Join(dir, "out", "live-trace-"+res.Workload)
	if err := os.RemoveAll(traceDir); err != nil {
		return err
	}
	plain, err := runLive(liveConfig(res.Workload, ""), seconds/2, nil)
	if err != nil {
		return err
	}
	t := newTracer(res.Workload)
	r, err := runLive(liveConfig(res.Workload, traceDir), seconds/2, t)
	if err != nil {
		return err
	}

	res.set("live.intents", r.Intents)
	res.set("live.synth_pushed", r.SynthPushed)
	res.set("live.synth_shed", r.SynthShed)
	res.set("live.shed_ratio_synth", r.SynthShed/r.Intents)
	res.set("live.records_pushed", r.RecordsPushed)
	res.set("live.records_shed", r.RecordsShed)
	res.set("live.shed_ratio_records", r.RecordsShed/(r.RecordsPushed+r.RecordsShed))
	res.set("live.late_records", r.Late)
	res.set("live.q_intents_highwater", r.HighIntents)
	res.set("live.q_synth_highwater", r.HighSynth)
	res.set("live.q_records_highwater", r.HighRecords)
	res.set("live.windows", float64(r.Windows))
	res.set("live.generator_lag_s", r.GenLag.Seconds())
	res.set("live.drain_s", r.Drain.Seconds())
	cpuPerFlow := func(r *liveRun) float64 { return float64(r.Cost.CPU.Microseconds()) / r.SynthPushed }
	res.set("live.trace_overhead_ratio", cpuPerFlow(r)/cpuPerFlow(plain))

	files, err := filepath.Glob(filepath.Join(traceDir, "trace*.jsonl"))
	if err != nil {
		return err
	}
	flows, err := trace.ReadFiles(files)
	if err != nil {
		return fmt.Errorf("read back live traces: %w", err)
	}
	spanMS := map[string][]float64{}
	for _, f := range flows {
		for _, s := range f.Spans {
			spanMS[s.Name] = append(spanMS[s.Name], s.DurMS)
		}
	}
	for _, m := range []struct {
		span, metric string
		scale        float64
	}{
		{trace.SpanLiveQueueWait, "live.queue_wait_ms", 1},
		{trace.SpanLiveSynth, "live.synth_us", 1000},
		{trace.SpanLiveAdmit, "live.admit_us", 1000},
	} {
		ms := spanMS[m.span]
		if len(ms) == 0 {
			return fmt.Errorf("no %s span among %d traced flows", m.span, len(flows))
		}
		sort.Float64s(ms)
		res.set(m.metric+"_p50", percentile(ms, 50)*m.scale)
		res.set(m.metric+"_p99", percentile(ms, 99)*m.scale)
	}
	res.Notes["traced_flows"] = float64(len(flows))
	countIntents(res, plain)
	countIntents(res, r)

	b := budget(t.all())
	res.Budget = &b
	res.set("live.self_share", b.share("live"))
	res.set("bench.self_share", b.share("bench"))
	if err := checkBudget(b); err != nil {
		return err
	}
	if err := microLive(res); err != nil {
		return err
	}
	microTracker(res)
	if err := microWorkload(res, liveCustomers); err != nil {
		return err
	}
	microPath(res)
	res.set("mac.sample_ns", microMACSample())
	if err := microLiveProcess(res); err != nil {
		return err
	}
	return writeSpans(res.Workload, t)
}
