// Package phy models the physical satellite channel: the link margin an
// earth station achieves given its position in the beam footprint, and the
// residual frame error rate the data-link layer (FEC + ARQ, package mac)
// has to absorb.
//
// The model is a deliberately compact DVB-S2-style abstraction: margin
// grows with elevation angle and shrinks with rain attenuation and with the
// station's distance from the beam center ("edge of coverage", Ireland's
// situation per §6.1 of the paper). The margin then selects an adaptive
// modulation/coding (ACM) point, which fixes spectral efficiency and the
// residual frame error rate.
package phy

import (
	"math"
	"time"

	"satwatch/internal/geo"
	"satwatch/internal/obs"
)

// Exported metrics (see OBSERVABILITY.md). The registry is reset per run,
// so phy_rtt_ms reflects the RTT band of the run's active constellation:
// a ~490–550 ms mass for GEO, 15–60 ms for LEO.
var (
	mRTT = obs.NewHistogram("phy_rtt_ms",
		"Propagation-only satellite-segment RTT sampled per flow, per the run's constellation.",
		"ms", obs.ExpBuckets(2, 1.5, 16))
	mHandovers = obs.NewCounter("phy_handovers_total",
		"Flows that started inside a leo_handover re-route window and paid its RTT step and stall.", "")
)

// ObserveRTT records one flow's propagation RTT in the phy_rtt_ms
// histogram.
func ObserveRTT(d time.Duration) { mRTT.Observe(float64(d) / float64(time.Millisecond)) }

// CountHandover counts one flow damaged by a satellite handover.
func CountHandover() { mHandovers.Inc() }

// Channel describes the physical link of one earth station (or of a beam's
// representative station).
type Channel struct {
	// ElevationDeg is the antenna elevation angle toward the satellite.
	ElevationDeg float64
	// EdgeFactor in [0,1] expresses how far the station sits from its
	// beam's boresight: 0 is beam center, 1 is the coverage edge where
	// the paper observes "severe transmission impairments".
	EdgeFactor float64
}

// edgeFactors captures, per country, where the serving beams' footprints
// put the bulk of the customers. Ireland sits at the edge of the coverage
// area; the U.K. and South Africa are noticeably off-center; Nigeria is
// essentially at boresight (§6.1).
var edgeFactors = map[geo.CountryCode]float64{
	"CD": 0.35, "NG": 0.05, "ZA": 0.45,
	"IE": 1.00, "ES": 0.10, "GB": 0.42,
	"DE": 0.30, "FR": 0.25, "IT": 0.15,
	"SN": 0.30, "CM": 0.25, "GH": 0.30,
}

// ChannelFor builds the representative channel of a country's customers
// using the default GEO satellite geometry.
func ChannelFor(c geo.Country) Channel {
	return ChannelAt(c, geo.GEO{Sat: geo.DefaultSatellite}, 0)
}

// ChannelAt builds the representative channel of a country's customers
// under the given constellation at simulated time t: the backend supplies
// the (possibly moving) serving satellite's elevation, and its
// EdgeFactorScale discounts the footprint-edge penalty for steered spot
// beams. For a static backend the result is independent of t.
func ChannelAt(c geo.Country, con geo.Constellation, t time.Duration) Channel {
	ef, ok := edgeFactors[c.Code]
	if !ok {
		ef = 0.3
	}
	return Channel{
		ElevationDeg: con.ElevationDeg(c, t),
		EdgeFactor:   ef * con.EdgeFactorScale(),
	}
}

// LinkMarginDB returns the clear-sky link margin in dB reduced by a rain
// attenuation term. rain in [0,1] is the instantaneous rain-fade intensity
// (0 = clear sky, 1 = heavy fade).
func (c Channel) LinkMarginDB(rain float64) float64 {
	// Clear-sky margin: up to ~12 dB at zenith, shrinking with slant path
	// (atmosphere crossed scales with 1/sin(elevation)) and with the
	// distance from beam boresight (antenna gain roll-off, up to ~7 dB).
	el := c.ElevationDeg * math.Pi / 180
	sin := math.Sin(el)
	if sin < 0.05 {
		sin = 0.05
	}
	atmos := 1.2 / sin            // dB of atmospheric loss
	rolloff := 9.0 * c.EdgeFactor // dB of beam-edge gain loss
	fade := 9.0 * rain            // dB of rain fade
	return 12.0 - atmos - rolloff - fade
}

// modcod is one point of the ACM ladder: the margin it requires, the
// spectral efficiency it delivers, and the residual frame error rate at
// that operating point.
type modcod struct {
	minMarginDB float64
	efficiency  float64 // bits/symbol after FEC
	residualFER float64
}

// A compressed DVB-S2 ladder: the link adapts down as margin degrades, and
// below the most robust point frames start failing outright.
var ladder = []modcod{
	{minMarginDB: 9.0, efficiency: 3.60, residualFER: 1e-5},
	{minMarginDB: 7.0, efficiency: 2.97, residualFER: 5e-5},
	{minMarginDB: 5.0, efficiency: 2.23, residualFER: 2e-4},
	{minMarginDB: 3.0, efficiency: 1.49, residualFER: 1e-3},
	{minMarginDB: 1.5, efficiency: 0.99, residualFER: 6e-3},
	{minMarginDB: 0.5, efficiency: 0.66, residualFER: 2.5e-2},
}

// floorFER is the error rate once the link is below the most robust ACM
// point: a large share of frames needs ARQ recovery.
const floorFER = 0.12

// operatingPoint selects the ACM point for the given rain fade.
func (c Channel) operatingPoint(rain float64) (efficiency, fer float64) {
	m := c.LinkMarginDB(rain)
	for _, mc := range ladder {
		if m >= mc.minMarginDB {
			return mc.efficiency, mc.residualFER
		}
	}
	return 0.49, floorFER
}

// SpectralEfficiency returns the delivered bits/symbol for the given rain
// fade intensity.
func (c Channel) SpectralEfficiency(rain float64) float64 {
	e, _ := c.operatingPoint(rain)
	return e
}

// FrameErrorRate returns the residual data-link frame error rate after FEC
// for the given rain fade intensity. This is the loss process the mac
// package's ARQ has to repair, each repair costing satellite-hop round
// trips that inflate the satellite-segment RTT.
func (c Channel) FrameErrorRate(rain float64) float64 {
	_, f := c.operatingPoint(rain)
	return f
}

// CapacityFactor returns the fraction of clear-sky throughput the link
// delivers under the given rain fade: the selected ACM point's spectral
// efficiency relative to clear sky. When a rain front crosses a beam the
// simulator divides effective utilization by this factor — the same
// offered load occupies a larger share of the degraded capacity.
func (c Channel) CapacityFactor(rain float64) float64 {
	clear := c.SpectralEfficiency(0)
	if clear <= 0 {
		return 1
	}
	return c.SpectralEfficiency(rain) / clear
}
