// Package pepmodel models the resource limits of the operator's Performance
// Enhancing Proxy. The paper's key finding on congestion (§6.1) is that the
// multi-second satellite RTTs in Congo are caused not by beam capacity but
// by "the saturation of the PEP processing ability", which "slows down the
// forwarding of packets, especially during the initial phase of the
// connection setup"; the PEP resources assigned to each beam depend on the
// SLA. This package turns that observation into an explicit queueing model.
package pepmodel

import (
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/obs"
	"satwatch/internal/trace"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mSetups = obs.NewCounter("pep_setups_total",
		"Connection setups processed by the PEP model.", "")
	mSetupSojourn = obs.NewHistogram("pep_setup_sojourn_seconds",
		"Sampled PEP connection-setup sojourn times (M/M/1).", "seconds", obs.LatencyBuckets())
	mPeakRho = obs.NewGauge("pep_peak_rho",
		"Highest PEP utilization (rho) seen by any setup so far.", "ratio")
	mSaturatedSetups = obs.NewCounter("pep_saturated_setups_total",
		"Setups served at rho > 0.9, where sojourns reach the multi-second regime.", "")
	mBypassed = obs.NewCounter("pep_bypassed_flows_total",
		"Flows pushed past split-TCP: by a PEP overload window, or by the adaptive LEO policy when the split no longer pays for its setup.", "")
)

// CountBypass records one flow that fell off split-TCP; its handshake
// and slow start cross the satellite end to end instead of terminating
// at the CPE. Two paths lead here: a PEP overload window
// (internal/faults), and — on non-static constellations — the adaptive
// policy that skips the split whenever Benefit is non-positive.
func CountBypass() { mBypassed.Inc() }

// Model describes the PEP processing resources of one beam.
type Model struct {
	// SetupTime is the unloaded service time of one connection setup
	// (tunnel Connect handling, proxy state allocation).
	SetupTime time.Duration
	// ForwardTime is the unloaded per-burst forwarding service time.
	ForwardTime time.Duration
	// MaxRho caps the effective utilization; beyond it the M/M/1 sojourn
	// would diverge while a real box sheds load instead.
	MaxRho float64
	// PerUserBuffer is the PEP buffer available to a single subscriber.
	// It back-pressures the ground-station-side download (§2.1, §6.5).
	PerUserBuffer int64
}

// Default returns the PEP dimensioning used by the simulator.
func Default() Model {
	return Model{
		SetupTime:     30 * time.Millisecond,
		ForwardTime:   2 * time.Millisecond,
		MaxRho:        0.985,
		PerUserBuffer: 3 << 20, // 3 MiB per user
	}
}

func (m Model) clampRho(rho float64) float64 {
	if rho < 0 {
		return 0
	}
	if rho > m.MaxRho {
		return m.MaxRho
	}
	return rho
}

// SetupDelay samples the sojourn time of a connection setup through the
// PEP at utilization rho, as an M/M/1 queue: exponential with mean
// SetupTime/(1-rho). At rho near MaxRho this reaches multiple seconds —
// the congested-beam behaviour of Figure 8.
func (m Model) SetupDelay(rho float64, r *dist.Rand) time.Duration {
	return m.SetupDelayTraced(rho, r, nil)
}

// SetupDelayTraced is SetupDelay recording a pep.setup span with the
// sampled utilization on fl (nil fl records nothing).
func (m Model) SetupDelayTraced(rho float64, r *dist.Rand, fl *trace.Flow) time.Duration {
	rho = m.clampRho(rho)
	mean := float64(m.SetupTime) / (1 - rho)
	d := time.Duration(r.Exponential(mean))
	mSetups.Inc()
	mSetupSojourn.ObserveDuration(d)
	mPeakRho.SetMax(rho)
	if rho > 0.9 {
		mSaturatedSetups.Inc()
	}
	if fl != nil {
		fl.Span(trace.SpanPEPSetup, trace.SegSatellite, d, trace.Attrs{
			"rho": rho, "setup_time_ms": float64(m.SetupTime) / float64(time.Millisecond),
		})
	}
	return d
}

// MeanSetupDelay returns the expected setup sojourn at utilization rho.
func (m Model) MeanSetupDelay(rho float64) time.Duration {
	rho = m.clampRho(rho)
	return time.Duration(float64(m.SetupTime) / (1 - rho))
}

// Benefit returns the expected handshake time split-TCP saves for a flow
// whose propagation RTT is propRTT, net of the setup sojourn the PEP
// charges at utilization rho: the proxy spoofs roughly two round trips of
// TCP/TLS handshake across the satellite, so the benefit is ~2×propRTT
// minus MeanSetupDelay(rho). At GEO propagation RTTs (~500 ms) the
// benefit is large except deep into saturation; at LEO RTTs (15–60 ms)
// it crosses zero at moderate load — the basis for the adaptive split
// policy the simulator applies under the LEO constellation, and the
// quantitative sense in which "PEP benefit shrinks at LEO RTTs".
func (m Model) Benefit(propRTT time.Duration, rho float64) time.Duration {
	return 2*propRTT - m.MeanSetupDelay(rho)
}

// Rho computes the PEP utilization of a beam given the current connection
// setup rate and the capacity the operator assigned: pepFactor times the
// dimensioning rate (the setup rate expected at the beam's busiest hour).
// pepFactor at or below 1 means the box saturates exactly at peak — the
// low-SLA beams of §6.1.
func Rho(setupRate, peakSetupRate, pepFactor float64) float64 {
	if peakSetupRate <= 0 || pepFactor <= 0 {
		return 0
	}
	capacity := peakSetupRate * pepFactor
	return setupRate / capacity
}
