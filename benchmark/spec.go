package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// The five workloads. Names are fixed: later issues cite them.
const (
	wlBatchCold    = "batch-cold"
	wlBatchWarm    = "batch-warm"
	wlLiveSteady   = "live-steady"
	wlLiveOverload = "live-overload"
	wlPepload      = "pepload"
)

// defaultSeconds is BENCHMARK.json's run_seconds, used when a subcommand
// gets no -seconds (the cross-check test holds the two together).
const defaultSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlBatchCold, "20 customers x 1 day, every rep a fresh process: the empty MAC cell cache makes the 45-cell micro-simulation most of the run, as on every CLI call."},
	{wlBatchWarm, "200 customers x 1 day, cell cache filled by a warm-up rep: MAC does nothing, time goes to pass B, TSV encode, analytics and report. Control for MAC changes."},
	{wlLiveSteady, "live daemon, 400 customers at 3600x, rate 1 (about a fifth of capacity), deep queues, open loop: cost shows as CPU per intent, and any shed is a failure."},
	{wlLiveOverload, "live daemon, default queue depths, rate 5xP (offered about 1.5x what the workers synthesize): queues full, shed policy active; the daemon's ceiling."},
	{wlPepload, "P closed-loop clients through CPE, tunnel ARQ, emulated 20 ms lossy link, gateway and origin on real loopback sockets: transfer latency, no simulator layer runs."},
}

// metricDef declares one metric. Bound is set on end-to-end metrics only;
// Moves, on per-layer metrics only, names what the metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// End-to-end metrics. Every workload reports every one (the driver's
// contract); README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "flows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_flow", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_flow", Unit: "1", Better: "lower", Bound: 0.03},
	{Name: "alloc_bytes_per_flow", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "xfer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "xfer_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
}

const (
	movesBatchWarm = "run_s, flows_per_s, cpu_us_per_flow on batch-warm"
	movesMAC       = "run_s, allocs_per_flow, peak_rss_mb on batch-cold; setup_s on live-*; nothing on batch-warm"
	movesPath      = "flows_per_s on batch-warm and live-overload (small share)"
	movesTstat     = "run_s, allocs_per_flow on batch-warm; cpu_us_per_flow on live-*"
	movesAnalytics = "run_s, peak_rss_mb on batch-warm; nothing on live-*"
	movesShed      = "ok_ratio on live-steady; flows_per_s on live-overload"
	movesLiveCPU   = "cpu_us_per_flow on live-steady"
	movesPep       = "xfer_p50_ms, xfer_p95_ms, cpu_us_per_flow on pepload; nothing elsewhere"
	movesShare     = "the layer's share of one traced op: the most run_s it can save"
)

// Per-layer metrics (layer = package name before the dot). A traced run
// reports every one; a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{Name: "workload.intents", Unit: "count", Better: "higher", Moves: "none (size of the input)"},
	{Name: "workload.generate_ns_per_intent", Unit: "ns", Better: "lower", Moves: movesBatchWarm + "; cpu_us_per_flow on live-steady"},
	{Name: "workload.source_day_s", Unit: "s", Better: "lower", Moves: "cpu_us_per_flow on live-steady (generator stage)"},

	{Name: "mac.prebuild_s", Unit: "s", Better: "lower", Moves: movesMAC},
	{Name: "mac.prebuild_allocs", Unit: "count", Better: "lower", Moves: movesMAC},
	{Name: "mac.prebuild_alloc_mb", Unit: "MB", Better: "lower", Moves: movesMAC},
	{Name: "mac.cell_build_ms_p50", Unit: "ms", Better: "lower", Moves: movesMAC},
	{Name: "mac.cell_build_ms_max", Unit: "ms", Better: "lower", Moves: "mac.prebuild_s: the slowest cell bounds a parallel prebuild"},
	{Name: "mac.sample_ns", Unit: "ns", Better: "lower", Moves: movesPath},
	{Name: "mac.cells_built", Unit: "count", Better: "lower", Moves: "cold/warm state check: grid size per cold rep, 0 per warm rep"},
	{Name: "mac.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},

	{Name: "phy.channel_fer_ns", Unit: "ns", Better: "lower", Moves: movesPath},
	{Name: "pepmodel.setup_delay_ns", Unit: "ns", Better: "lower", Moves: movesPath},
	{Name: "shaper.take_ns", Unit: "ns", Better: "lower", Moves: movesPath},

	{Name: "netsim.pass_a_s", Unit: "s", Better: "lower", Moves: movesBatchWarm},
	{Name: "netsim.mac_prebuild_s", Unit: "s", Better: "lower", Moves: "run_s on batch-cold"},
	{Name: "netsim.pass_b_s", Unit: "s", Better: "lower", Moves: movesBatchWarm},
	{Name: "netsim.merge_s", Unit: "s", Better: "lower", Moves: movesBatchWarm},
	{Name: "netsim.pass_b_ns_per_flow", Unit: "ns", Better: "lower", Moves: movesBatchWarm},
	{Name: "netsim.pass_b_allocs_per_flow", Unit: "1", Better: "lower", Moves: "allocs_per_flow on batch-warm"},
	{Name: "netsim.pass_a_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_flow on batch-*"},
	{Name: "netsim.merge_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_flow on batch-*"},
	{Name: "netsim.intent_cache_hits", Unit: "count", Better: "higher", Moves: "netsim.pass_b_s (a spill regenerates the customer-day)"},
	{Name: "netsim.intent_cache_spills", Unit: "count", Better: "lower", Moves: "netsim.pass_b_s"},
	{Name: "netsim.worker_imbalance", Unit: "ratio", Better: "lower", Moves: "netsim.pass_b_s: pass B waits for its slowest worker"},
	{Name: "netsim.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "informational on shared cores"},
	{Name: "netsim.live_process_ns_per_flow", Unit: "ns", Better: "lower", Moves: "bounds flows_per_s on live-overload; against pass_b_ns_per_flow it is the two-drivers gap"},
	{Name: "netsim.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},

	{Name: "tstat.observe_ns_per_segment", Unit: "ns", Better: "lower", Moves: movesTstat},
	{Name: "tstat.sort_s", Unit: "s", Better: "lower", Moves: movesTstat},
	{Name: "tstat.merge_s", Unit: "s", Better: "lower", Moves: movesTstat},
	{Name: "tstat.encode_s", Unit: "s", Better: "lower", Moves: movesTstat},
	{Name: "tstat.encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesTstat},
	{Name: "tstat.encode_allocs_per_flow", Unit: "1", Better: "lower", Moves: "allocs_per_flow on batch-warm"},
	{Name: "tstat.log_bytes_per_flow", Unit: "B", Better: "lower", Moves: "tstat.encode_s, tstat.decode_s"},
	{Name: "tstat.decode_s", Unit: "s", Better: "lower", Moves: "nothing end to end today; shows an encode win that costs the satreport -from reader"},
	{Name: "tstat.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},

	{Name: "analytics.dataset_s", Unit: "s", Better: "lower", Moves: movesAnalytics},
	{Name: "analytics.dataset_ns_per_flow", Unit: "ns", Better: "lower", Moves: movesAnalytics},
	{Name: "analytics.dataset_allocs_per_flow", Unit: "1", Better: "lower", Moves: "allocs_per_flow on batch-warm"},
	{Name: "analytics.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},
	{Name: "report.analyze_s", Unit: "s", Better: "lower", Moves: movesAnalytics},
	{Name: "report.render_s", Unit: "s", Better: "lower", Moves: movesAnalytics},
	{Name: "report.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},

	{Name: "live.intents", Unit: "count", Better: "higher", Moves: "none (offered load)"},
	{Name: "live.synth_pushed", Unit: "count", Better: "higher", Moves: "flows_per_s on live-overload"},
	{Name: "live.synth_shed", Unit: "count", Better: "lower", Moves: movesShed},
	{Name: "live.shed_ratio_synth", Unit: "ratio", Better: "lower", Moves: movesShed},
	{Name: "live.records_pushed", Unit: "count", Better: "higher", Moves: "none (work done downstream of the workers)"},
	{Name: "live.records_shed", Unit: "count", Better: "lower", Moves: movesShed},
	{Name: "live.shed_ratio_records", Unit: "ratio", Better: "lower", Moves: movesShed},
	{Name: "live.late_records", Unit: "count", Better: "lower", Moves: "none end to end (records dropped by finalized windows)"},
	{Name: "live.q_intents_highwater", Unit: "count", Better: "lower", Moves: movesShed},
	{Name: "live.q_synth_highwater", Unit: "count", Better: "lower", Moves: movesShed},
	{Name: "live.q_records_highwater", Unit: "count", Better: "lower", Moves: movesShed},
	{Name: "live.windows", Unit: "count", Better: "higher", Moves: "xfer_p50_ms on live-* (window cadence)"},
	{Name: "live.generator_lag_s", Unit: "s", Better: "lower", Moves: "run_s on live-*"},
	{Name: "live.drain_s", Unit: "s", Better: "lower", Moves: "run_s on live-*"},
	{Name: "live.queue_pushpop_ns", Unit: "ns", Better: "lower", Moves: movesLiveCPU},
	{Name: "live.analytics_add_ns", Unit: "ns", Better: "lower", Moves: movesLiveCPU + "; live.records_shed on live-overload"},
	{Name: "live.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: movesLiveCPU},
	{Name: "live.queue_wait_ms_p99", Unit: "ms", Better: "lower", Moves: "rises with burst depth long before anything sheds"},
	{Name: "live.synth_us_p50", Unit: "us", Better: "lower", Moves: movesLiveCPU + "; flows_per_s on live-overload"},
	{Name: "live.synth_us_p99", Unit: "us", Better: "lower", Moves: movesLiveCPU},
	{Name: "live.admit_us_p50", Unit: "us", Better: "lower", Moves: movesLiveCPU},
	{Name: "live.admit_us_p99", Unit: "us", Better: "lower", Moves: movesLiveCPU},
	{Name: "live.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "the ROADMAP 1(e) gate: traced over untraced cpu_us_per_flow"},
	{Name: "live.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},

	{Name: "pep.handshake_ms_p50", Unit: "ms", Better: "lower", Moves: "flows_per_s on pepload"},
	{Name: "pep.dial_retries", Unit: "count", Better: "lower", Moves: movesPep},
	{Name: "pep.relay_errors", Unit: "count", Better: "lower", Moves: "ok_ratio on pepload"},
	{Name: "pep.self_share", Unit: "ratio", Better: "lower", Moves: movesShare},
	{Name: "tunnel.frames_sent", Unit: "count", Better: "lower", Moves: movesPep},
	{Name: "tunnel.frames_per_flow", Unit: "1", Better: "lower", Moves: movesPep},
	{Name: "tunnel.retransmits", Unit: "count", Better: "lower", Moves: "xfer_p95_ms on pepload"},
	{Name: "tunnel.retransmit_ratio", Unit: "ratio", Better: "lower", Moves: "xfer_p95_ms on pepload (wasted work)"},
	{Name: "tunnel.window_stalls", Unit: "count", Better: "lower", Moves: "xfer_p95_ms on pepload"},
	{Name: "tunnel.streams_reset", Unit: "count", Better: "lower", Moves: "ok_ratio on pepload"},
	{Name: "tunnel.streams_timedout", Unit: "count", Better: "lower", Moves: "ok_ratio on pepload"},
	{Name: "tunnel.stream_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesPep},
	{Name: "tunnel.cpu_us_per_frame", Unit: "us", Better: "lower", Moves: "cpu_us_per_flow on pepload"},
	{Name: "linkemu.ns_per_datagram", Unit: "ns", Better: "lower", Moves: "cpu_us_per_flow on pepload"},

	{Name: "bench.self_share", Unit: "ratio", Better: "lower", Moves: "harness time inside a traced op; the run is invalid above 0.05"},
	{Name: "bench.span_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced over untraced cpu_us_per_flow of the same run (the benchmark's own spans)"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchmarkFile is BENCHMARK.json as the PR driver reads it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []declMetric  `json:"end_to_end"`
	PerLayer   []declMetric  `json:"per_layer"`
}

type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpec holds BENCHMARK.json against what the program emits: the same
// workloads, the same metrics with the same units, directions and bounds,
// nothing undeclared, and the driver's limits on counts and names.
func checkSpec(f *benchmarkFile) []string {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if f.RunSeconds != defaultSeconds {
		bad("run_seconds %d, program default %d", f.RunSeconds, defaultSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			bad("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			bad("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		bad("BENCHMARK.json declares %d workloads, program runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			bad("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if i < len(workloads) && w != workloads[i] {
			bad("workload %d: BENCHMARK.json has %+v, program has %+v", i, w, workloads[i])
		}
	}

	metrics := func(kind string, decl []declMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			bad("%s: BENCHMARK.json declares %d metrics, program emits %d", kind, len(decl), len(defs))
		}
		for _, d := range decl {
			name(kind, d.Name)
			if !unitRE.MatchString(d.Unit) {
				bad("%s %s: unit %q", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && d.Bound == nil:
				bad("%s %s has no bound", kind, d.Name)
			case bounded && (*d.Bound <= 0 || *d.Bound > 0.25):
				bad("%s %s: bound %v outside (0, 0.25]", kind, d.Name, *d.Bound)
			case !bounded && d.Bound != nil:
				bad("%s %s must not carry a bound", kind, d.Name)
			}
			def, ok := findMetric(defs, d.Name)
			if !ok {
				bad("%s %s is declared but never emitted", kind, d.Name)
				continue
			}
			if d.Unit != def.Unit || d.Better != def.Better {
				bad("%s %s: declared %s/%s, program has %s/%s", kind, d.Name, d.Unit, d.Better, def.Unit, def.Better)
			}
			if bounded && d.Bound != nil && *d.Bound != def.Bound {
				bad("%s %s: bound %v, program has %v", kind, d.Name, *d.Bound, def.Bound)
			}
		}
		for _, def := range defs {
			found := false
			for _, d := range decl {
				found = found || d.Name == def.Name
			}
			if !found {
				bad("%s %s is emitted but not declared", kind, def.Name)
			}
		}
	}
	metrics("end_to_end", f.EndToEnd, endToEnd, true)
	metrics("per_layer", f.PerLayer, perLayer, false)

	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		bad("end_to_end lacks setup_s")
	}
	return errs
}
