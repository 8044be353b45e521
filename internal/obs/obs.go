// Package obs is the pipeline's observability layer: a dependency-free
// metrics registry with counters, gauges, timers and fixed-bucket
// histograms, all goroutine-safe and cheap enough for the pass-B worker
// hot paths (one or two atomic operations per observation, no locks).
//
// Instrumented packages declare their metrics as package-level vars
// against the Default registry:
//
//	var mDelay = obs.NewHistogram("mac_uplink_access_delay_seconds",
//		"Sampled uplink MAC access delay.", "seconds", obs.LatencyBuckets())
//
// and observe them from any goroutine. Consumers take a point-in-time
// Snapshot, or serialize the whole registry with WritePrometheus
// (Prometheus text exposition format) or WriteJSON (the `-metrics` dump
// of the CLIs). OBSERVABILITY.md is the runbook documenting every metric
// the pipeline exports.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types.
type Kind string

// The four metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindTimer     Kind = "timer"
	KindHistogram Kind = "histogram"
)

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below UpperBound (non-cumulative; Snapshot reports raw per-bucket
// counts and the Prometheus writer accumulates them).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// Snapshot is the point-in-time state of one metric.
type Snapshot struct {
	Name string `json:"-"`
	Kind Kind   `json:"kind"`
	Help string `json:"help,omitempty"`
	Unit string `json:"unit,omitempty"`
	// Value is the counter/gauge value, or the timer/histogram sum.
	Value float64 `json:"value"`
	// Count is the number of observations (timer and histogram only).
	Count int64 `json:"count,omitempty"`
	// Buckets are the histogram's raw per-bucket counts; the final bucket
	// has UpperBound +Inf.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns Value/Count for timers and histograms, 0 when empty.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Value / float64(s.Count)
}

// metric is the registry-internal interface all four kinds implement.
type metric interface {
	info() *meta
	snap() Snapshot
	reset()
}

type meta struct {
	name, help, unit string
	kind             Kind
}

func (m *meta) info() *meta { return m }

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing integer metric.
type Counter struct {
	meta
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) snap() Snapshot {
	return Snapshot{Name: c.name, Kind: KindCounter, Help: c.help, Unit: c.unit, Value: float64(c.v.Load())}
}
func (c *Counter) reset() { c.v.Store(0) }

// ---------------------------------------------------------------------
// Gauge

// Gauge is a settable float metric.
type Gauge struct {
	meta
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetDuration stores d in seconds.
func (g *Gauge) SetDuration(d time.Duration) { g.Set(d.Seconds()) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Add adds v to the gauge.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) snap() Snapshot {
	return Snapshot{Name: g.name, Kind: KindGauge, Help: g.help, Unit: g.unit, Value: g.Value()}
}
func (g *Gauge) reset() { g.bits.Store(0) }

// ---------------------------------------------------------------------
// Timer

// Timer accumulates durations: total seconds and observation count. It is
// the cheap "how much wall time went here, how often" metric; use a
// Histogram when the shape of the distribution matters.
type Timer struct {
	meta
	count atomic.Int64
	nanos atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.count.Add(1)
	t.nanos.Add(int64(d))
}

// Start returns a stop function that records the elapsed time when called.
func (t *Timer) Start() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

func (t *Timer) snap() Snapshot {
	return Snapshot{Name: t.name, Kind: KindTimer, Help: t.help, Unit: t.unit,
		Value: time.Duration(t.nanos.Load()).Seconds(), Count: t.count.Load()}
}
func (t *Timer) reset() { t.count.Store(0); t.nanos.Store(0) }

// ---------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed buckets (plus an implicit +Inf
// bucket) and tracks the sum. Observation is two atomic adds and a CAS
// loop for the float sum.
type Histogram struct {
	meta
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) snap() Snapshot {
	s := Snapshot{Name: h.name, Kind: KindHistogram, Help: h.help, Unit: h.unit,
		Value: h.Sum(), Count: h.count.Load()}
	s.Buckets = make([]Bucket, len(h.counts))
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return s
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width>0, n>=1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// LatencyBuckets is the standard latency bucketing used by the pipeline's
// delay histograms: 1 ms to ~65 s, doubling.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 17) }

// RatioBuckets is the standard bucketing for [0,1] ratios (utilization,
// hit rates): 0.1 steps.
func RatioBuckets() []float64 { return LinearBuckets(0.1, 0.1, 10) }

// ---------------------------------------------------------------------
// Registry

// Registry holds named metrics. Registration is idempotent: re-declaring
// a name with the same kind returns the existing metric (so tests and
// repeated runs in one process share state); a kind mismatch panics.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: map[string]metric{}} }

// Default is the process-wide registry all package-level metrics use.
var Default = NewRegistry()

func register[M metric](r *Registry, name string, make func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ex, ok := r.metrics[name]; ok {
		m, ok := ex.(M)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help, unit string) *Counter {
	return register(r, name, func() *Counter {
		return &Counter{meta: meta{name: name, help: help, unit: unit, kind: KindCounter}}
	})
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help, unit string) *Gauge {
	return register(r, name, func() *Gauge {
		return &Gauge{meta: meta{name: name, help: help, unit: unit, kind: KindGauge}}
	})
}

// Timer registers (or returns) a timer. Timer names end in _seconds by
// convention.
func (r *Registry) Timer(name, help string) *Timer {
	return register(r, name, func() *Timer {
		return &Timer{meta: meta{name: name, help: help, unit: "seconds", kind: KindTimer}}
	})
}

// Histogram registers (or returns) a histogram with the given strictly
// increasing bucket upper bounds.
func (r *Registry) Histogram(name, help, unit string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	return register(r, name, func() *Histogram {
		b := append([]float64(nil), bounds...)
		return &Histogram{
			meta:   meta{name: name, help: help, unit: unit, kind: KindHistogram},
			bounds: b,
			counts: make([]atomic.Int64, len(b)+1),
		}
	})
}

// Get returns the snapshot of one metric by name.
func (r *Registry) Get(name string) (Snapshot, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		return Snapshot{}, false
	}
	return m.snap(), true
}

// Snapshot returns all metrics sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.RLock()
	out := make([]Snapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.snap())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reset zeroes every metric (registrations stay). Intended for tests and
// for isolating successive runs in one process.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.metrics {
		m.reset()
	}
}

// Package-level helpers against the Default registry.

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help, unit string) *Counter { return Default.Counter(name, help, unit) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help, unit string) *Gauge { return Default.Gauge(name, help, unit) }

// NewTimer registers a timer on the Default registry.
func NewTimer(name, help string) *Timer { return Default.Timer(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help, unit string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, unit, bounds)
}
