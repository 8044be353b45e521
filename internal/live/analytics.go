package live

import (
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/tstat"
)

// WindowSummary is one analytics window: the live counterpart of the
// batch report's per-dataset aggregates, computed online over a fixed
// span of simulated time. An open window folds its records in through
// addFlow and addDNS; finalize sets its RTT mean.
type WindowSummary struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`

	Flows     int64 `json:"flows"`
	DNS       int64 `json:"dns"`
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	// BytesByCountry maps country code to total volume.
	BytesByCountry map[string]int64 `json:"bytes_by_country,omitempty"`
	// DNSByResolver maps resolver ID to query count.
	DNSByResolver map[string]int64 `json:"dns_by_resolver,omitempty"`

	// Satellite-RTT aggregate over the window's flows that completed a
	// TLS handshake.
	RTTSamples int64   `json:"rtt_samples"`
	RTTMeanMs  float64 `json:"rtt_mean_ms"`
	RTTMaxMs   float64 `json:"rtt_max_ms"`

	// Degraded marks a window an older daemon folded without its
	// breakdown maps. Nothing sets it now; it stays so that history logs
	// holding such windows still read and render as they did.
	Degraded bool `json:"degraded,omitempty"`

	// rttSum is the exact sum behind RTTMeanMs while the window is open.
	rttSum time.Duration
	// rttMsSum is Σ mean·n over the windows merged into a total.
	rttMsSum float64
}

// addFlow folds one flow record into an open window.
func (w *WindowSummary) addFlow(rec *tstat.FlowRecord, prefixes map[netip.Prefix]geo.CountryCode) {
	w.Flows++
	w.BytesUp += rec.BytesUp
	w.BytesDown += rec.BytesDown
	if code, ok := netsim.CountryOf(prefixes, rec.Client); ok {
		w.BytesByCountry[string(code)] += rec.BytesUp + rec.BytesDown
	}
	if rec.SatRTT > 0 {
		w.RTTSamples++
		w.rttSum += rec.SatRTT
		w.RTTMaxMs = max(w.RTTMaxMs, float64(rec.SatRTT)/float64(time.Millisecond))
	}
}

// addDNS folds one DNS record into an open window.
func (w *WindowSummary) addDNS(rec *tstat.DNSRecord) {
	w.DNS++
	w.DNSByResolver[string(dnssim.ByAddr(rec.Resolver).ID)]++
}

// merge adds a finalized window o into w, a total over several windows:
// the span widens, counts and breakdowns add up, and the RTT mean is
// Σ mean·n over the merged windows, summed in merge order and divided by
// their samples — only each window's mean survives finalization. w's
// breakdown maps must be non-nil.
func (w *WindowSummary) merge(o *WindowSummary) {
	w.Start = min(w.Start, o.Start)
	w.End = max(w.End, o.End)
	w.Flows += o.Flows
	w.DNS += o.DNS
	w.BytesUp += o.BytesUp
	w.BytesDown += o.BytesDown
	for c, b := range o.BytesByCountry {
		w.BytesByCountry[c] += b
	}
	for r, n := range o.DNSByResolver {
		w.DNSByResolver[r] += n
	}
	w.RTTSamples += o.RTTSamples
	w.rttMsSum += o.RTTMeanMs * float64(o.RTTSamples)
	w.RTTMaxMs = max(w.RTTMaxMs, o.RTTMaxMs)
	if w.RTTSamples > 0 {
		w.RTTMeanMs = w.rttMsSum / float64(w.RTTSamples)
	}
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

	mu        sync.Mutex
	open      map[int64]*WindowSummary
	watermark time.Duration
	recent    []WindowSummary // newest last, capped at keep
	onFinal   func(WindowSummary)
}

// keepWindows is the number of finalized summaries the daemon retains.
const keepWindows = 48

// NewAnalytics builds the rolling-window aggregator. window and grace
// are simulated durations; keep bounds the retained summaries (default
// keepWindows). The last parameter is unused: benchmark/ passes nil to
// it and is not changed outside a yardstick change (ROADMAP item 4(c)).
func NewAnalytics(window, grace time.Duration, keep int, prefixes map[netip.Prefix]geo.CountryCode, _ *atomic.Bool) *Analytics {
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
		prefixes: prefixes,
		open:     map[int64]*WindowSummary{},
	}
}

// closesAt is the watermark at which window k finalizes: its end plus
// the grace period.
func (a *Analytics) closesAt(k int64) time.Duration {
	return time.Duration(k+1)*a.window + a.grace
}

// windowAt returns the open window containing t, or nil when that
// window's finalization boundary has already passed the watermark.
// Folding a too-late record in would reopen the window and re-emit a
// duplicate summary for a span the control plane — and the history log
// — has already served; instead the record is dropped and counted,
// keeping finalization exactly-once per window. Callers hold a.mu.
func (a *Analytics) windowAt(t time.Duration) *WindowSummary {
	k := int64(t / a.window)
	if a.closesAt(k) <= a.watermark {
		mLateRecords.Inc()
		return nil
	}
	w, ok := a.open[k]
	if !ok {
		w = &WindowSummary{Start: time.Duration(k) * a.window, End: time.Duration(k+1) * a.window,
			BytesByCountry: map[string]int64{}, DNSByResolver: map[string]int64{}}
		a.open[k] = w
	}
	return w
}

// AddFlow folds one flow record into its window.
func (a *Analytics) AddFlow(rec tstat.FlowRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w := a.windowAt(rec.Start); w != nil {
		w.addFlow(&rec, a.prefixes)
		a.advance(rec.Start)
	}
}

// AddDNS folds one DNS record into its window.
func (a *Analytics) AddDNS(rec tstat.DNSRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w := a.windowAt(rec.T); w != nil {
		w.addDNS(&rec)
		a.advance(rec.T)
	}
}

// advance moves the watermark and finalizes every window whose end plus
// grace the watermark has passed. Callers hold a.mu.
func (a *Analytics) advance(t time.Duration) {
	if t > a.watermark {
		a.watermark = t
	}
	a.finalizeThrough(a.watermark)
}

// Finalize flushes every open window (graceful-drain path).
func (a *Analytics) Finalize() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.finalizeThrough(math.MaxInt64)
}

// finalizeThrough finalizes, in window order, every open window that
// closes at or before limit. Callers hold a.mu.
func (a *Analytics) finalizeThrough(limit time.Duration) {
	var due []int64
	for k := range a.open {
		if a.closesAt(k) <= limit {
			due = append(due, k)
		}
	}
	slices.Sort(due)
	for _, k := range due {
		a.finalize(k)
	}
}

// finalize emits open window k's summary. Callers hold a.mu.
func (a *Analytics) finalize(k int64) {
	w := a.open[k]
	delete(a.open, k)
	if w.RTTSamples > 0 {
		w.RTTMeanMs = float64(w.rttSum) / float64(w.RTTSamples) / float64(time.Millisecond)
	}
	w.rttSum = 0 // a finalized summary holds what its JSON line holds
	a.recent = append(a.recent, *w)
	if len(a.recent) > a.keep {
		a.recent = a.recent[len(a.recent)-a.keep:]
	}
	if a.onFinal != nil {
		a.onFinal(*w)
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
