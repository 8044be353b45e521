package live

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/tstat"
)

// WindowSummary is one finalized analytics window: the live counterpart
// of the batch report's per-dataset aggregates, computed online over a
// fixed span of simulated time. In degraded mode the per-country and
// per-resolver breakdowns are dropped (nil maps) and only the totals are
// kept — coarse but cheap.
type WindowSummary struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`

	Flows     int64 `json:"flows"`
	DNS       int64 `json:"dns"`
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	// BytesByCountry maps country code to total volume; nil in degraded
	// windows.
	BytesByCountry map[string]int64 `json:"bytes_by_country,omitempty"`
	// DNSByResolver maps resolver ID to query count; nil in degraded
	// windows.
	DNSByResolver map[string]int64 `json:"dns_by_resolver,omitempty"`

	// Satellite-RTT aggregate over the window's flows that completed a
	// TLS handshake.
	RTTSamples int64   `json:"rtt_samples"`
	RTTMeanMs  float64 `json:"rtt_mean_ms"`
	RTTMaxMs   float64 `json:"rtt_max_ms"`

	Degraded bool `json:"degraded,omitempty"`
}

type windowAgg struct {
	flows, dns         int64
	bytesUp, bytesDown int64
	byCountry          map[string]int64
	byResolver         map[string]int64
	rttN               int64
	rttSum             time.Duration
	rttMax             time.Duration
}

// Analytics folds the record stream into rolling windows of simulated
// time. A window [k*W, (k+1)*W) finalizes when the watermark — the
// maximum record start seen — passes its end plus a grace period
// (records arrive out of order by up to flow duration + idle timeout).
// Finalized summaries land in a bounded ring readable by the control
// plane. All methods are goroutine-safe.
type Analytics struct {
	window, grace time.Duration
	keep          int
	prefixes      map[netip.Prefix]geo.CountryCode
	degraded      *atomic.Bool

	mu        sync.Mutex
	open      map[int64]*windowAgg
	watermark time.Duration
	recent    []WindowSummary // newest last, capped at keep
	onFinal   func(WindowSummary)
}

// keepWindows is the number of finalized summaries the daemon retains.
const keepWindows = 48

// NewAnalytics builds the rolling-window aggregator. window and grace
// are simulated durations; keep bounds the retained summaries (default
// keepWindows). degraded may be nil.
func NewAnalytics(window, grace time.Duration, keep int, prefixes map[netip.Prefix]geo.CountryCode, degraded *atomic.Bool) *Analytics {
	if window <= 0 {
		window = 10 * time.Minute
	}
	if grace <= 0 {
		grace = 10 * time.Minute
	}
	if keep <= 0 {
		keep = keepWindows
	}
	return &Analytics{
		window: window, grace: grace, keep: keep,
		prefixes: prefixes, degraded: degraded,
		open: map[int64]*windowAgg{},
	}
}

func (a *Analytics) isDegraded() bool { return a.degraded != nil && a.degraded.Load() }

// aggAt returns the open aggregate for the window containing t, or nil
// when that window's finalization boundary has already passed the
// watermark. Folding a too-late record in would reopen the window and
// re-emit a duplicate summary for a span the control plane — and the
// history log — has already served; instead the record is dropped and
// counted, keeping finalization exactly-once per window. Callers hold
// a.mu.
func (a *Analytics) aggAt(t time.Duration) *windowAgg {
	k := int64(t / a.window)
	if time.Duration(k+1)*a.window+a.grace <= a.watermark {
		mLateRecords.Inc()
		return nil
	}
	agg, ok := a.open[k]
	if !ok {
		agg = &windowAgg{}
		if !a.isDegraded() {
			agg.byCountry = map[string]int64{}
			agg.byResolver = map[string]int64{}
		}
		a.open[k] = agg
	}
	return agg
}

// AddFlow folds one flow record into its window.
func (a *Analytics) AddFlow(rec tstat.FlowRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	agg := a.aggAt(rec.Start)
	if agg == nil {
		return
	}
	agg.flows++
	agg.bytesUp += rec.BytesUp
	agg.bytesDown += rec.BytesDown
	if agg.byCountry != nil {
		if code, ok := netsim.CountryOf(a.prefixes, rec.Client); ok {
			agg.byCountry[string(code)] += rec.BytesUp + rec.BytesDown
		}
	}
	if rec.SatRTT > 0 {
		agg.rttN++
		agg.rttSum += rec.SatRTT
		if rec.SatRTT > agg.rttMax {
			agg.rttMax = rec.SatRTT
		}
	}
	a.advance(rec.Start)
}

// AddDNS folds one DNS record into its window.
func (a *Analytics) AddDNS(rec tstat.DNSRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	agg := a.aggAt(rec.T)
	if agg == nil {
		return
	}
	agg.dns++
	if agg.byResolver != nil {
		agg.byResolver[string(dnssim.ByAddr(rec.Resolver).ID)]++
	}
	a.advance(rec.T)
}

// advance moves the watermark and finalizes every window whose end plus
// grace the watermark has passed. Callers hold a.mu.
func (a *Analytics) advance(t time.Duration) {
	if t > a.watermark {
		a.watermark = t
	}
	var due []int64
	for k := range a.open {
		if time.Duration(k+1)*a.window+a.grace <= a.watermark {
			due = append(due, k)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, k := range due {
		a.finalize(k, a.open[k])
	}
}

// Finalize flushes every open window (graceful-drain path).
func (a *Analytics) Finalize() {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]int64, 0, len(a.open))
	for k := range a.open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		a.finalize(k, a.open[k])
	}
}

// finalize emits one window summary. Callers hold a.mu.
func (a *Analytics) finalize(k int64, agg *windowAgg) {
	delete(a.open, k)
	s := WindowSummary{
		Start: time.Duration(k) * a.window, End: time.Duration(k+1) * a.window,
		Flows: agg.flows, DNS: agg.dns,
		BytesUp: agg.bytesUp, BytesDown: agg.bytesDown,
		BytesByCountry: agg.byCountry, DNSByResolver: agg.byResolver,
		RTTSamples: agg.rttN,
		RTTMaxMs:   float64(agg.rttMax) / float64(time.Millisecond),
		Degraded:   agg.byCountry == nil,
	}
	if agg.rttN > 0 {
		s.RTTMeanMs = float64(agg.rttSum) / float64(agg.rttN) / float64(time.Millisecond)
	}
	a.recent = append(a.recent, s)
	if len(a.recent) > a.keep {
		a.recent = a.recent[len(a.recent)-a.keep:]
	}
	if a.onFinal != nil {
		a.onFinal(s)
	}
}

// OnFinalize registers fn to receive every finalized summary (the
// history-log persistence hook). fn runs under the analytics lock on
// whatever goroutine triggered finalization, so it must not call back
// into Analytics. Call before the pipeline starts.
func (a *Analytics) OnFinalize(fn func(WindowSummary)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onFinal = fn
}

// Preload seeds the ring with previously finalized summaries (a
// restarted daemon replaying its history log) and advances the
// watermark past them so already-covered windows cannot reopen. The
// OnFinalize hook is not invoked — these windows are already persisted.
func (a *Analytics) Preload(ws []WindowSummary) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range ws {
		a.recent = append(a.recent, s)
		if s.End > a.watermark {
			a.watermark = s.End
		}
	}
	if len(a.recent) > a.keep {
		a.recent = a.recent[len(a.recent)-a.keep:]
	}
}

// Recent returns the finalized summaries, oldest first.
func (a *Analytics) Recent() []WindowSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]WindowSummary, len(a.recent))
	copy(out, a.recent)
	return out
}

// Watermark returns the analytics watermark (max record time seen).
func (a *Analytics) Watermark() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.watermark
}
