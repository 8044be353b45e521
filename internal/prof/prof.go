// Package prof is the pipeline's profiling layer: per-stage CPU
// attribution through pprof labels, per-stage allocation accounting from
// the runtime allocation counters, and automatic profile artifacts
// (-profile DIR on the CLIs) that go tool pprof reads. Like internal/obs
// it is dependency-free: everything here is standard library.
//
// The stage-label contract (documented in DESIGN.md): every CPU sample
// taken while the pipeline runs carries a `stage` label naming the
// pipeline stage that was executing — one of the Stage* constants below —
// and, inside the fan-out stages, a `worker` label carrying the worker
// index. `go tool pprof -tags cpu.pprof` then attributes CPU exactly the
// way the manifest's timings block attributes wall time.
//
// Allocation accounting reads runtime.MemStats at stage boundaries. The
// counters are process-wide, so the deltas attribute cleanly only because
// the pipeline's stages are sequential (each one barriers on its workers
// before the next starts); concurrent background work (the 10 ms memory
// sampler, a debug server) contaminates them by at most a few KiB.
package prof

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"

	"satwatch/internal/obs"
)

// The stage labels of the pipeline, in execution order. These are a
// contract: DESIGN.md documents them, OBSERVABILITY.md's profiling
// section explains how to slice a CPU profile by them, and the
// cross-check test at the repo root fails when they drift from the docs.
const (
	// StagePassA is netsim pass A: parallel workload generation, offered
	// load aggregation and beam dimensioning.
	StagePassA = "netsim-passA"
	// StageMACPrebuild is the MAC access-delay grid pre-build between the
	// passes.
	StageMACPrebuild = "mac-prebuild"
	// StagePassB is netsim pass B: parallel flow synthesis and tracking.
	StagePassB = "passB"
	// StageMerge is the k-way merge of per-worker sorted logs.
	StageMerge = "merge"
	// StageTstat is the canonical sort of each pass-B worker's log (the
	// tracker retires flows inside synthesis, at customer boundaries).
	StageTstat = "tstat"
	// StageReport is the analysis stage: dataset enrichment and the
	// paper's tables and figures.
	StageReport = "report"
)

// StageLabels lists every stage label the pipeline can attach to a CPU
// sample, in execution order (the doc cross-check test walks this).
func StageLabels() []string {
	return []string{StagePassA, StageMACPrebuild, StagePassB, StageMerge, StageTstat, StageReport}
}

// Stage runs fn as one named pipeline stage: the calling goroutine (and
// every goroutine fn spawns) gets the pprof label stage=<label> for CPU
// attribution, and the runtime allocation counters are read at the
// boundaries, returning the stage's allocation delta. fn receives a
// context carrying the label set, to hand to Worker for per-worker
// sub-labels. The caller's previous label set is restored on return.
func Stage(ctx context.Context, label string, fn func(ctx context.Context)) obs.AllocInfo {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pprof.Do(ctx, pprof.Labels("stage", label), fn)
	runtime.ReadMemStats(&after)
	return obs.AllocInfo{
		Bytes:   after.TotalAlloc - before.TotalAlloc,
		Objects: after.Mallocs - before.Mallocs,
	}
}

// Worker labels the body of one worker goroutine with worker=<n> on top
// of the stage labels carried by ctx (the context a Stage callback
// received). fn receives the combined label context, so nested Do calls
// keep the worker label.
func Worker(ctx context.Context, n int, fn func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels("worker", strconv.Itoa(n)), fn)
}

// Do runs fn under stage=<label> on top of whatever labels ctx carries —
// the re-labeling primitive for sub-stages inside a worker (e.g. the
// tstat flush at the end of a pass-B worker keeps its worker label but
// swaps the stage).
func Do(ctx context.Context, label string, fn func()) {
	pprof.Do(ctx, pprof.Labels("stage", label), func(context.Context) { fn() })
}
