package live

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// SoakReport is the verdict of a soak run: the pipeline runs for a fixed
// wall duration under an overload phase, then drains; the report checks
// the three leak classes an always-on daemon must not have.
type SoakReport struct {
	Duration time.Duration `json:"duration_ns"`

	// Goroutines before start and after drain (plus settle time).
	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`

	// GC'd heap at the first-quarter sample and at the end; unbounded
	// growth fails the run.
	HeapEarlyBytes uint64 `json:"heap_early_bytes"`
	HeapFinalBytes uint64 `json:"heap_final_bytes"`

	// Progress is the post-drain snapshot; its queue depths must all be
	// zero.
	Progress Progress `json:"progress"`
	DrainErr string   `json:"drain_err,omitempty"`

	Failures []string `json:"failures,omitempty"`
}

// OK reports whether every invariant held.
func (r *SoakReport) OK() bool { return len(r.Failures) == 0 && r.DrainErr == "" }

// gcHeap samples the live heap after a forced GC, so transient garbage
// does not count as growth.
func gcHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Soak runs the pipeline for dur under cfg, doubling the rate multiplier
// through the middle third (the overload phase), then drains and checks:
// no leaked goroutines, every queue empty, heap growth bounded. The
// returned report carries the evidence; callers exit nonzero when !OK.
func Soak(cfg Config, dur time.Duration) (*SoakReport, error) {
	rep := &SoakReport{Duration: dur}

	// Baseline before the pipeline exists.
	runtime.GC()
	rep.GoroutinesBefore = runtime.NumGoroutine()

	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	baseRate := p.Rate()

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- p.Run(ctx) }()

	// Overload phase: double the admission rate through the middle third.
	third := dur / 3
	select {
	case <-time.After(third):
		p.SetRate(baseRate * 2)
	case err := <-runDone:
		return nil, fmt.Errorf("live: pipeline exited before soak end: %v", err)
	}
	rep.HeapEarlyBytes = gcHeap()
	select {
	case <-time.After(third):
		p.SetRate(baseRate)
	case err := <-runDone:
		return nil, fmt.Errorf("live: pipeline exited before soak end: %v", err)
	}

	// Let the run finish and drain.
	if err := <-runDone; err != nil {
		rep.DrainErr = err.Error()
	}
	rep.Progress = p.Progress()
	rep.HeapFinalBytes = gcHeap()

	// Goroutines unwind asynchronously after drain; poll to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep.GoroutinesAfter = runtime.NumGoroutine()
		if rep.GoroutinesAfter <= rep.GoroutinesBefore+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	if rep.GoroutinesAfter > rep.GoroutinesBefore+2 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"goroutines leaked: %d before, %d after drain", rep.GoroutinesBefore, rep.GoroutinesAfter))
	}
	if q := rep.Progress.QueueDepths; q.Intents != 0 || q.Synth != 0 || q.Records != 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"queues not drained: intents=%d synth=%d records=%d", q.Intents, q.Synth, q.Records))
	}
	// Bounded-heap check: the post-drain heap may exceed the mid-run
	// sample only by a generous constant (steady-state caches), never by
	// a multiple that would indicate per-item accumulation.
	if rep.HeapFinalBytes > rep.HeapEarlyBytes*2+64<<20 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"heap grew unbounded: %d bytes early, %d bytes after drain",
			rep.HeapEarlyBytes, rep.HeapFinalBytes))
	}
	if rep.Progress.Intents == 0 {
		rep.Failures = append(rep.Failures, "no intents admitted: pipeline never moved")
	}
	return rep, nil
}
