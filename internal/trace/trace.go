// Package trace is the pipeline's per-flow flight recorder: where
// internal/obs aggregates every latency contribution into histograms,
// trace follows individual sampled flows through the simulator and emits
// one structured span tree per flow — the causal record of how *this*
// flow accumulated its ~550 ms (or multi-second) round trip.
//
// A Tracer is created with an output writer and a 1-in-N sample rate.
// The synthesis hot path asks Start for a handle; unsampled flows (and a
// nil Tracer — tracing disabled) get a nil *Flow, and every Flow method
// is a nil-safe no-op, so the disabled path costs one pointer check.
// Sampling is a deterministic hash of the flow identity (customer, day,
// intent index), never a counter or clock, so the same seed and sample
// rate select the same flows regardless of worker count or scheduling.
//
// Instrumented components (mac, pepmodel, tstat) append spans to
// the handle as the flow passes through them; each span carries the
// component's inputs (utilization, FER, rho, ...) as attributes. The
// component that observes the flow last — the tstat tracker, at flow
// emission — calls Finish, handing the completed tree back to the
// Tracer. Close sorts finished flows by identity and writes JSONL, one
// span tree per line, making the output byte-identical across runs and
// worker counts. OBSERVABILITY.md §Tracing documents the schema; cmd/
// sattrace renders waterfalls from the files.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"satwatch/internal/obs"
)

// Span names, one per instrumented latency component. SpanNames lists
// them all for the runbook cross-check test.
const (
	// SpanPropagation is the speed-of-light slant-path round trip
	// (4 passes CPE↔satellite↔ground station): fixed per country under
	// the GEO constellation, a function of the pass phase under LEO.
	SpanPropagation = "geo.propagation"
	// SpanHandover is the damage a LEO satellite handover inflicts on a
	// flow starting inside the re-route window: the RTT step of the new
	// path plus the first-flight stall while it converges.
	SpanHandover = "geo.handover"
	// SpanMACUplink is the uplink MAC access delay: contention,
	// reservation and ARQ on the return channel.
	SpanMACUplink = "mac.uplink_access"
	// SpanMACDownlink is the downlink frame-alignment plus queueing
	// delay on the forward channel.
	SpanMACDownlink = "mac.downlink_queue"
	// SpanPEPSetup is the PEP connection-setup sojourn (M/M/1 at the
	// beam's current rho).
	SpanPEPSetup = "pep.setup"
	// SpanGroundRTT is the ground-segment round trip from the gateway
	// to the server hosting region.
	SpanGroundRTT = "cdn.ground_rtt"
	// SpanHandshakeRTT is the satellite RTT as the tstat probe measures
	// it from the captured handshake (ServerHello → next client flight),
	// recorded when the tracker emits the flow record.
	SpanHandshakeRTT = "tstat.handshake_rtt"
	// SpanLiveQueueWait is the wall time a flow intent spent buffered on
	// the live pipeline's queues between admission and synthesis pickup.
	SpanLiveQueueWait = "live.queue_wait"
	// SpanLiveSynth is the wall time the live synthesis worker spent
	// turning the intent into tracker events (the whole model stack).
	SpanLiveSynth = "live.synth"
	// SpanLiveAdmit is the wall time spent pushing the flow's record onto
	// the analytics queue; its attrs record whether admission succeeded
	// or the record was shed.
	SpanLiveAdmit = "live.analytics_admit"
)

// SpanNames returns every span name the pipeline can emit, sorted.
func SpanNames() []string {
	return []string{
		SpanGroundRTT,
		SpanHandover,
		SpanPropagation,
		SpanLiveAdmit,
		SpanLiveQueueWait,
		SpanLiveSynth,
		SpanMACDownlink,
		SpanMACUplink,
		SpanPEPSetup,
		SpanHandshakeRTT,
	}
}

// Segment labels classifying where a span's time is spent. Spans in
// SegSatellite sum to the flow's satellite-segment RTT (the Total);
// SegGround is the gateway→server leg; SegProbe spans are measurements,
// not contributions, and are never summed.
const (
	SegSatellite = "sat"
	SegGround    = "ground"
	SegProbe     = "probe"
)

// Attrs carries a span's (or flow's) input parameters. Keys serialize in
// sorted order (encoding/json map behaviour), keeping output
// deterministic.
type Attrs map[string]any

// Span is one latency contribution inside a flow's tree.
type Span struct {
	Name string `json:"name"`
	// Seg is the segment label (SegSatellite, SegGround, SegProbe).
	Seg string `json:"seg,omitempty"`
	// DurMS is the contribution in milliseconds of simulated time.
	DurMS float64 `json:"dur_ms"`
	// Attrs are the component inputs that produced the contribution.
	Attrs Attrs `json:"attrs,omitempty"`
}

// Flow is the root of one sampled flow's span tree. Fields are written
// by exactly one worker goroutine between Start and Finish; after Finish
// the Tracer owns the value.
type Flow struct {
	// Customer, Day and Index identify the flow intent deterministically
	// (the sampling key and the output sort key).
	Customer int `json:"customer"`
	Day      int `json:"day"`
	Index    int `json:"index"`

	Beam    int    `json:"beam"`
	Country string `json:"country"`
	// Hour is the local beam hour of the flow start (0-23).
	Hour   int    `json:"hour"`
	Proto  string `json:"proto,omitempty"`
	Domain string `json:"domain,omitempty"`
	// StartMS is the flow start in milliseconds of simulated time.
	StartMS float64 `json:"start_ms"`
	// TotalMS is the flow's satellite-segment RTT in milliseconds; the
	// SegSatellite spans decompose it.
	TotalMS float64 `json:"total_ms"`
	// Attrs are flow-level inputs (utilization, FER, rho, bottleneck).
	Attrs Attrs  `json:"attrs,omitempty"`
	Spans []Span `json:"spans"`

	sink sink
}

// sink receives a flow tree when Finish is called. The batch Tracer
// collects into its sorted done list; the live pipeline's per-worker
// collector buffers for ring publication.
type sink interface {
	collect(*Flow)
}

// SinkFunc adapts a function to the Finish destination, letting callers
// outside the package (the live pipeline) receive finished span trees.
// The function runs on whatever goroutine calls Finish.
type SinkFunc func(*Flow)

func (fn SinkFunc) collect(f *Flow) { fn(f) }

// StartSampled returns a recording handle delivering to fn when the
// flow identity is in the 1-in-sampleN sample, nil otherwise. It is the
// streaming-path analogue of Tracer.Start.
func StartSampled(fn SinkFunc, customer, day, index int, sampleN uint64) *Flow {
	if fn == nil || !Sampled(customer, day, index, sampleN) {
		return nil
	}
	return &Flow{Customer: customer, Day: day, Index: index, sink: fn}
}

// ID renders the flow identity as "c<customer>-d<day>-f<index>".
func (f *Flow) ID() string {
	return fmt.Sprintf("c%d-d%d-f%d", f.Customer, f.Day, f.Index)
}

// SetMeta fills the flow-level metadata. Nil-safe.
func (f *Flow) SetMeta(beam int, country string, hour int, proto, domain string, start time.Duration) {
	if f == nil {
		return
	}
	f.Beam, f.Country, f.Hour = beam, country, hour
	f.Proto, f.Domain = proto, domain
	f.StartMS = ms(start)
}

// SetAttr records one flow-level attribute. Nil-safe.
func (f *Flow) SetAttr(key string, v any) {
	if f == nil {
		return
	}
	if f.Attrs == nil {
		f.Attrs = Attrs{}
	}
	f.Attrs[key] = v
}

// SetTotal records the flow's satellite-segment RTT. Nil-safe.
func (f *Flow) SetTotal(d time.Duration) {
	if f == nil {
		return
	}
	f.TotalMS = ms(d)
}

// Span appends one latency contribution. Nil-safe.
func (f *Flow) Span(name, seg string, d time.Duration, attrs Attrs) {
	if f == nil {
		return
	}
	f.Spans = append(f.Spans, Span{Name: name, Seg: seg, DurMS: ms(d), Attrs: attrs})
}

// Finish hands the completed tree to its sink. Nil-safe; finishing a
// flow twice records it once.
func (f *Flow) Finish() {
	if f == nil || f.sink == nil {
		return
	}
	s := f.sink
	f.sink = nil
	s.collect(f)
}

// SatSumMS returns the sum of the flow's SegSatellite span durations —
// the decomposition that must match TotalMS.
func (f *Flow) SatSumMS() float64 {
	var sum float64
	for _, s := range f.Spans {
		if s.Seg == SegSatellite {
			sum += s.DurMS
		}
	}
	return sum
}

// ComponentMS returns the summed duration of the named component's spans.
func (f *Flow) ComponentMS(name string) float64 {
	var sum float64
	for _, s := range f.Spans {
		if s.Name == name {
			sum += s.DurMS
		}
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Tracer collects sampled flow trees and serializes them on Close. Safe
// for concurrent use by the pass-B workers; a nil *Tracer is a valid
// disabled tracer (Start returns nil).
type Tracer struct {
	w       io.Writer
	sampleN uint64

	mu   sync.Mutex
	done []*Flow
}

// New builds a tracer writing JSONL to w (nil for one finished with
// CloseFile), sampling 1 in sampleN flows (sampleN <= 1 traces every
// flow).
func New(w io.Writer, sampleN int) *Tracer {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Tracer{w: w, sampleN: uint64(sampleN)}
}

// collect implements sink: finished flows join the sorted-at-Close list.
func (t *Tracer) collect(f *Flow) {
	t.mu.Lock()
	t.done = append(t.done, f)
	t.mu.Unlock()
}

// SampleN reports the configured 1-in-N sampling rate.
func (t *Tracer) SampleN() int {
	if t == nil {
		return 0
	}
	return int(t.sampleN)
}

// Start returns a recording handle when the flow identified by
// (customer, day, index) is sampled, nil otherwise. Nil-safe: a nil
// Tracer always returns nil, making the disabled path a pointer check.
func (t *Tracer) Start(customer, day, index int) *Flow {
	if t == nil || !Sampled(customer, day, index, t.sampleN) {
		return nil
	}
	return &Flow{Customer: customer, Day: day, Index: index, sink: t}
}

// Sampled reports whether the flow identity hashes into the 1-in-N
// sample. The decision depends only on the identity and n — never on
// counters, scheduling or clocks — so a given seed and sample rate
// always select the same flows.
func Sampled(customer, day, index int, n uint64) bool {
	if n <= 1 {
		return true
	}
	x := uint64(customer)*0x9e3779b97f4a7c15 ^ uint64(day)*0xbf58476d1ce4e5b9 ^ uint64(index)*0x94d049bb133111eb
	// splitmix64 finalizer: avalanche the combined identity.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%n == 0
}

// Len reports how many flows have finished so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Close sorts the finished flows by identity and writes them as JSONL,
// one span tree per line. The output is byte-identical for identical
// (seed, sample) runs regardless of worker count. Close does not close
// the underlying writer and must not race with in-flight Finish calls.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	return t.writeTo(t.w)
}

// CloseFile is Close into the file at path instead of the tracer's
// writer, written atomically like every other run output.
func (t *Tracer) CloseFile(path string) error {
	return obs.WriteFileAtomic(path, t.writeTo)
}

func (t *Tracer) writeTo(w io.Writer) error {
	t.mu.Lock()
	flows := t.done
	t.done = nil
	t.mu.Unlock()
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Customer != b.Customer {
			return a.Customer < b.Customer
		}
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		return a.Index < b.Index
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range flows {
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("trace: encode %s: %w", f.ID(), err)
		}
	}
	return bw.Flush()
}
