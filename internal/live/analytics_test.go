package live

import (
	"net/netip"
	"testing"
	"time"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/tstat"
)

func testAnalytics() *Analytics {
	prefixes := map[netip.Prefix]geo.CountryCode{
		netip.MustParsePrefix("10.1.0.0/16"): "IT",
		netip.MustParsePrefix("10.2.0.0/16"): "NG",
	}
	return NewAnalytics(10*time.Minute, time.Minute, 8, prefixes, nil)
}

func flowAt(t time.Duration, client string, down int64, rtt time.Duration) tstat.FlowRecord {
	return tstat.FlowRecord{
		Client: netip.MustParseAddr(client),
		Start:  t, End: t + time.Second,
		BytesDown: down, BytesUp: 10,
		SatRTT: rtt,
	}
}

func TestAnalyticsWindowsFinalizeOnWatermark(t *testing.T) {
	a := testAnalytics()
	a.AddFlow(flowAt(1*time.Minute, "10.1.0.5", 1000, 550*time.Millisecond))
	a.AddFlow(flowAt(5*time.Minute, "10.2.0.9", 500, 0))
	if got := len(a.Recent()); got != 0 {
		t.Fatalf("windows finalized before watermark passed grace: %d", got)
	}

	// A record at 11:30 sets the watermark past 10m + 1m grace: the
	// first window must finalize.
	a.AddFlow(flowAt(11*time.Minute+30*time.Second, "10.1.0.5", 42, 0))
	recent := a.Recent()
	if len(recent) != 1 {
		t.Fatalf("finalized windows = %d, want 1", len(recent))
	}
	w := recent[0]
	if w.Start != 0 || w.End != 10*time.Minute {
		t.Errorf("window bounds = [%s, %s)", w.Start, w.End)
	}
	if w.Flows != 2 || w.BytesDown != 1500 {
		t.Errorf("window totals = %d flows, %d bytes down; want 2, 1500", w.Flows, w.BytesDown)
	}
	if w.BytesByCountry["IT"] != 1010 || w.BytesByCountry["NG"] != 510 {
		t.Errorf("per-country volumes = %v", w.BytesByCountry)
	}
	if w.RTTSamples != 1 || w.RTTMeanMs != 550 {
		t.Errorf("rtt aggregate = %d samples, mean %.1f ms", w.RTTSamples, w.RTTMeanMs)
	}
	if w.Degraded {
		t.Error("healthy window marked degraded")
	}
}

func TestAnalyticsResolverShares(t *testing.T) {
	a := testAnalytics()
	res := dnssim.Resolvers()
	a.AddDNS(tstat.DNSRecord{Resolver: res[0].Addr, T: time.Minute})
	a.AddDNS(tstat.DNSRecord{Resolver: res[0].Addr, T: 2 * time.Minute})
	a.AddDNS(tstat.DNSRecord{Resolver: res[1].Addr, T: 3 * time.Minute})
	a.Finalize()
	recent := a.Recent()
	if len(recent) != 1 {
		t.Fatalf("finalized windows = %d, want 1", len(recent))
	}
	w := recent[0]
	if w.DNS != 3 {
		t.Errorf("dns total = %d, want 3", w.DNS)
	}
	if w.DNSByResolver[string(res[0].ID)] != 2 || w.DNSByResolver[string(res[1].ID)] != 1 {
		t.Errorf("resolver shares = %v", w.DNSByResolver)
	}
}

func TestAnalyticsRingBounded(t *testing.T) {
	a := testAnalytics()
	for i := 0; i < 20; i++ {
		a.AddFlow(flowAt(time.Duration(i)*10*time.Minute+time.Minute, "10.1.0.5", 1, 0))
	}
	a.Finalize()
	if got := len(a.Recent()); got != 8 {
		t.Fatalf("ring holds %d summaries, want keep=8", got)
	}
	// Oldest first, newest last.
	recent := a.Recent()
	for i := 1; i < len(recent); i++ {
		if recent[i].Start <= recent[i-1].Start {
			t.Fatalf("ring out of order: %s after %s", recent[i].Start, recent[i-1].Start)
		}
	}
}

// TestAnalyticsWatermarkGraceBoundary pins the finalization condition:
// a window [0, W) finalizes exactly when the watermark reaches W + grace
// — not one tick before.
func TestAnalyticsWatermarkGraceBoundary(t *testing.T) {
	const (
		window = 10 * time.Minute
		grace  = time.Minute
	)
	cases := []struct {
		name      string
		watermark time.Duration
		finalized int
	}{
		{"inside window", 5 * time.Minute, 0},
		{"at window end", window, 0},
		{"one tick before boundary", window + grace - time.Nanosecond, 0},
		{"exactly at boundary", window + grace, 1},
		{"past boundary", window + grace + time.Second, 1},
		{"two windows due", 2*window + grace, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testAnalytics()
			a.AddFlow(flowAt(time.Minute, "10.1.0.5", 100, 0))
			// Seed the second window only when the probe will still own
			// the watermark — every AddFlow advances it.
			if tc.watermark > window+time.Minute {
				a.AddFlow(flowAt(window+time.Minute, "10.2.0.9", 200, 0))
			}
			// The probe record advances the watermark; it may itself open
			// (or extend) a window but never finalizes its own.
			a.AddFlow(flowAt(tc.watermark, "10.1.0.5", 1, 0))
			if got := len(a.Recent()); got != tc.finalized {
				t.Fatalf("watermark %s finalized %d windows, want %d",
					tc.watermark, got, tc.finalized)
			}
			if w := a.Watermark(); w != tc.watermark {
				t.Fatalf("watermark = %s, want %s", w, tc.watermark)
			}
		})
	}
}

// TestAnalyticsRingEvictionUnderKeepPressure drives far more windows
// than the ring keeps and checks the survivors are exactly the newest
// keep, in order, with the eviction count visible via total progression.
func TestAnalyticsRingEvictionUnderKeepPressure(t *testing.T) {
	cases := []struct {
		name    string
		keep    int
		windows int
	}{
		{"keep 1", 1, 6},
		{"keep smaller than produced", 4, 12},
		{"keep equal to produced", 5, 5},
		{"keep larger than produced", 16, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAnalytics(10*time.Minute, time.Minute, tc.keep, nil, nil)
			var finalized []WindowSummary
			a.OnFinalize(func(s WindowSummary) { finalized = append(finalized, s) })
			for i := 0; i < tc.windows; i++ {
				a.AddFlow(flowAt(time.Duration(i)*10*time.Minute+time.Minute, "10.1.0.5", 1, 0))
			}
			a.Finalize()
			if len(finalized) != tc.windows {
				t.Fatalf("OnFinalize saw %d windows, want every one of %d", len(finalized), tc.windows)
			}
			recent := a.Recent()
			wantKept := tc.keep
			if tc.windows < wantKept {
				wantKept = tc.windows
			}
			if len(recent) != wantKept {
				t.Fatalf("ring holds %d, want %d", len(recent), wantKept)
			}
			// Survivors are the newest windows, oldest-first.
			for i, w := range recent {
				wantStart := time.Duration(tc.windows-wantKept+i) * 10 * time.Minute
				if w.Start != wantStart {
					t.Fatalf("ring[%d].Start = %s, want %s", i, w.Start, wantStart)
				}
			}
		})
	}
}

// TestAnalyticsPreloadAdvancesWatermark checks the restart path: a
// preloaded history must land in the ring without re-firing the
// persistence hook, and already-covered windows must not reopen.
func TestAnalyticsPreloadAdvancesWatermark(t *testing.T) {
	a := testAnalytics()
	fired := 0
	a.OnFinalize(func(WindowSummary) { fired++ })
	prior := []WindowSummary{
		{Start: 0, End: 10 * time.Minute, Flows: 5},
		{Start: 10 * time.Minute, End: 20 * time.Minute, Flows: 7},
	}
	a.Preload(prior)
	if fired != 0 {
		t.Fatalf("Preload fired OnFinalize %d times; preloaded windows are already persisted", fired)
	}
	if got := len(a.Recent()); got != 2 {
		t.Fatalf("ring after Preload = %d windows", got)
	}
	if w := a.Watermark(); w != 20*time.Minute {
		t.Fatalf("watermark after Preload = %s, want 20m", w)
	}
	// New records for the already-covered span fold into windows at or
	// after the watermark only after passing grace; they never duplicate
	// a preloaded window in the ring by merely arriving.
	a.AddFlow(flowAt(21*time.Minute, "10.1.0.5", 10, 0))
	a.Finalize()
	recent := a.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring = %d windows after one new finalization, want 3", len(recent))
	}
	if fired != 1 {
		t.Fatalf("OnFinalize fired %d times for the one new window", fired)
	}
	if recent[2].Start != 20*time.Minute {
		t.Fatalf("new window start = %s, want 20m", recent[2].Start)
	}
}

// TestAnalyticsLateRecordsDroppedExactlyOnce pins the exactly-once
// finalization contract: a record arriving after its window's
// end-plus-grace boundary must be dropped — never reopen the window and
// re-emit a duplicate summary (which would also duplicate a history-log
// line a restarted daemon replays).
func TestAnalyticsLateRecordsDroppedExactlyOnce(t *testing.T) {
	a := testAnalytics()
	var finalized []WindowSummary
	a.OnFinalize(func(s WindowSummary) { finalized = append(finalized, s) })

	a.AddFlow(flowAt(time.Minute, "10.1.0.5", 100, 0))
	// Watermark to 12m: window [0, 10m) finalizes (boundary 11m).
	a.AddFlow(flowAt(12*time.Minute, "10.2.0.9", 200, 0))
	if len(finalized) != 1 {
		t.Fatalf("finalized %d windows, want 1", len(finalized))
	}

	// Flow and DNS records landing back inside the finalized window
	// must be dropped, not aggregated into a duplicate.
	a.AddFlow(flowAt(2*time.Minute, "10.1.0.5", 999, 0))
	a.AddDNS(tstat.DNSRecord{T: 3 * time.Minute, Resolver: dnssim.Resolvers()[0].Addr})
	if len(finalized) != 1 {
		t.Fatalf("late records re-finalized: %d windows", len(finalized))
	}
	if got := len(a.Recent()); got != 1 {
		t.Fatalf("ring has %d windows, want 1", got)
	}
	if a.Recent()[0].Flows != 1 {
		t.Errorf("late flow leaked into the finalized summary: %+v", a.Recent()[0])
	}

	// A record in a still-open window (inside grace) is not late.
	a.AddFlow(flowAt(11*time.Minute+30*time.Second, "10.1.0.5", 5, 0))
	a.AddFlow(flowAt(21*time.Minute+10*time.Second, "10.1.0.5", 7, 0))
	if len(finalized) != 2 {
		t.Fatalf("finalized %d windows, want 2", len(finalized))
	}
	if finalized[1].Flows != 2 {
		t.Errorf("second window flows = %d, want 2 (12m and 11m30s records)", finalized[1].Flows)
	}
	for i := 1; i < len(finalized); i++ {
		if finalized[i].Start <= finalized[i-1].Start {
			t.Errorf("window starts not strictly increasing: %v then %v",
				finalized[i-1].Start, finalized[i].Start)
		}
	}
}
