// Package errant builds data-driven network-emulation profiles from
// measured datasets — the reproduction of the paper's released artifact
// (§1: "we have created a data-driven model for our ERRANT network
// emulator tool"). A profile captures, per country and time window, the
// delay/jitter/loss/rate behaviour a SatCom customer experiences, and can
// be exported as Linux tc/netem commands.
package errant

import (
	"fmt"
	"sort"
	"time"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
)

// Window names the time-of-day regime a profile describes.
type Window string

// The Figure 8a windows.
const (
	WindowNight Window = "night"
	WindowPeak  Window = "peak"
)

// Profile is one emulation operating point.
type Profile struct {
	Country geo.CountryCode
	Window  Window

	// OneWayDelay is half the median satellite RTT.
	OneWayDelay time.Duration
	// Jitter is half the (P90-P50) RTT spread.
	Jitter time.Duration
	// Loss is the emulated residual datagram loss.
	Loss float64
	// RateDown/RateUp are the median achievable rates in bit/s.
	RateDown float64
	RateUp   float64
	// Samples is how many RTT measurements back the profile.
	Samples int
}

// Name returns the profile's identifier, e.g. "satcom-CD-peak".
func (p Profile) Name() string {
	return fmt.Sprintf("satcom-%s-%s", p.Country, p.Window)
}

// NetemCommands renders the profile as tc/netem shell commands for iface.
func (p Profile) NetemCommands(iface string) []string {
	delayMs := float64(p.OneWayDelay) / float64(time.Millisecond)
	jitMs := float64(p.Jitter) / float64(time.Millisecond)
	rateKbit := p.RateDown * 1e-3
	return []string{
		fmt.Sprintf("tc qdisc add dev %s root handle 1: netem delay %.0fms %.0fms loss %.2f%%",
			iface, delayMs, jitMs, p.Loss*100),
		fmt.Sprintf("tc qdisc add dev %s parent 1: handle 2: tbf rate %.0fkbit burst 32kbit latency 400ms",
			iface, rateKbit),
	}
}

// minThroughputBytes is the bulk-flow threshold for the rate estimate.
const minThroughputBytes = 2 << 20

// BuildProfiles derives per-(country, window) profiles from a measured
// dataset. Countries without enough samples are skipped.
func BuildProfiles(ds *analytics.Dataset) []Profile {
	night, peak := ds.SatRTTSamples()
	thrNight, thrPeak, _ := ds.ThroughputSamples(minThroughputBytes)

	var out []Profile
	build := func(code geo.CountryCode, w Window, rtts []float64, thr []float64) {
		if len(rtts) < 10 {
			return
		}
		s := analytics.NewSample(rtts)
		med := s.Median()
		p90 := s.Quantile(0.9)
		prof := Profile{
			Country:     code,
			Window:      w,
			OneWayDelay: time.Duration(med / 2 * float64(time.Second)),
			Jitter:      time.Duration((p90 - med) / 2 * float64(time.Second)),
			Loss:        0.003,
			RateUp:      2e6,
			Samples:     s.Len(),
		}
		if len(thr) > 0 {
			prof.RateDown = analytics.NewSample(thr).Median()
		} else {
			prof.RateDown = 10e6
		}
		out = append(out, prof)
	}
	for _, c := range geo.Countries() {
		build(c.Code, WindowNight, night[c.Code], thrNight[c.Code])
		build(c.Code, WindowPeak, peak[c.Code], thrPeak[c.Code])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Country != out[j].Country {
			return out[i].Country < out[j].Country
		}
		return out[i].Window < out[j].Window
	})
	return out
}

// Render prints profiles as a table plus netem scripts.
func Render(profiles []Profile, iface string) string {
	out := "ERRANT-style SatCom emulation profiles\n"
	for _, p := range profiles {
		out += fmt.Sprintf("%-20s delay=%v jitter=%v loss=%.2f%% rate_down=%.1fMb/s samples=%d\n",
			p.Name(), p.OneWayDelay.Round(time.Millisecond), p.Jitter.Round(time.Millisecond),
			p.Loss*100, p.RateDown/1e6, p.Samples)
		for _, cmd := range p.NetemCommands(iface) {
			out += "    " + cmd + "\n"
		}
	}
	return out
}
