package live

// Streaming flight recorder: the batch pipeline samples flows into a
// Tracer that sorts and writes once at exit; the daemon needs the same
// span trees continuously. Tracing owns the two live destinations — a
// bounded ring `GET /trace/recent` serves and an optional size-capped
// rotating JSONL log — and the deterministic sampling decision, keyed
// exactly like batch `-trace-sample` (splitmix64 over the flow
// identity), so a given sample rate picks the same flows regardless of
// worker count or scheduling.
//
// Publication discipline: synthesis workers buffer finished handles
// locally (see pipeline.go synth) and call Publish only after all spans
// are appended, so readers never observe a tree mid-write.

import (
	"satwatch/internal/trace"
)

// DefaultTraceRing bounds the recent-traced-flows ring served at
// /trace/recent.
const DefaultTraceRing = 256

// Tracing is the live flight-recorder state: sampling rate, recent ring
// and optional rotating disk log. A nil *Tracing disables tracing (all
// methods are nil-safe; Start always returns nil).
type Tracing struct {
	sampleN uint64
	ring    *trace.Ring
	w       *trace.RotatingWriter // nil: ring only
}

// newTracing builds the live tracer from cfg's Trace* fields. A
// TraceSample <= 0 returns (nil, nil): tracing disabled, zero hot-path
// cost beyond a nil check.
func newTracing(cfg Config) (*Tracing, error) {
	if cfg.TraceSample <= 0 {
		return nil, nil
	}
	t := &Tracing{sampleN: uint64(cfg.TraceSample), ring: trace.NewRing(DefaultTraceRing)}
	if cfg.TraceDir != "" {
		w, err := trace.NewRotatingWriter(cfg.TraceDir)
		if err != nil {
			return nil, err
		}
		t.w = w
	}
	return t, nil
}

// SampleN reports the 1-in-N rate (0 when disabled).
func (t *Tracing) SampleN() int {
	if t == nil {
		return 0
	}
	return int(t.sampleN)
}

// Start returns a recording handle when the flow identity is sampled,
// delivering the finished tree to sink. Nil-safe.
func (t *Tracing) Start(sink trace.SinkFunc, customer, day, index int) *trace.Flow {
	if t == nil {
		return nil
	}
	return trace.StartSampled(sink, customer, day, index, t.sampleN)
}

// Publish makes a finished, fully-spanned flow visible: ring first (the
// dashboard path), then the disk log. Write errors count but do not
// stop the pipeline — tracing is an observation, never a liability.
func (t *Tracing) Publish(f *trace.Flow) {
	if t == nil || f == nil {
		return
	}
	t.ring.Add(f)
	if t.w == nil {
		return
	}
	if _, err := t.w.Write(f); err != nil {
		mTraceWriteErrors.Inc()
	}
}

// Recent returns up to limit traced flows, newest first.
func (t *Tracing) Recent(limit int) []*trace.Flow {
	if t == nil {
		return nil
	}
	return t.ring.Recent(limit)
}

// Total reports how many flows have been published.
func (t *Tracing) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// Close closes the disk log (nil-safe, idempotent via RotatingWriter).
func (t *Tracing) Close() error {
	if t == nil || t.w == nil {
		return nil
	}
	return t.w.Close()
}
