package netsim

import (
	"fmt"
	"time"

	"satwatch/internal/obs"
)

// ManifestFor seeds a run manifest from a finished simulation: seed and
// full config, the effective parallelism, and the per-stage wall timings
// (pass A, MAC grid pre-build, pass B, k-way merge). Callers add output
// digests and extra timings, then Write it next to the run's outputs.
func ManifestFor(tool string, cfg Config, out *Output) *obs.Manifest {
	m := obs.NewManifest(tool, cfg.Seed)
	m.Config = cfg.withDefaults()
	m.Parallelism = out.Stats.Workers
	m.Status = out.Stats.Status()
	m.Errors = out.Stats.Errors
	// The manifest records the effective schedule the run played back
	// (Config.Faults plus constellation-contributed handover events), so
	// a LEO run's manifest is enough to reproduce its damage exactly.
	if out.Faults != nil {
		m.Faults = out.Faults
	} else if cfg.Faults != nil {
		m.Faults = cfg.Faults
	}
	m.AddTiming("pass_a", out.Stats.PassA)
	m.AddTiming("mac_prebuild", out.Stats.MACPrebuild)
	m.AddTiming("pass_b", out.Stats.PassB)
	m.AddTiming("merge", out.Stats.Merge)
	for stage, a := range out.Stats.StageAllocs {
		m.AddAlloc(stage, a)
	}
	m.AllocBytesPerFlow = out.Stats.AllocBytesPerFlow()
	return m
}

// Progress is the live state of the run in flight, read from the Default
// obs registry. It backs both the -progress stderr line and the debug
// server's /progress JSON endpoint.
type Progress struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Phase          string  `json:"phase"`
	CustomersDone  int64   `json:"customers_done"`
	CustomersTotal int64   `json:"customers_total"`
	Flows          int64   `json:"flows"`
	// BeamUtilMean is the mean beam utilization over all uplink samples
	// so far (0 before the first sample).
	BeamUtilMean float64 `json:"beam_util_mean"`
	// PEPPeakRho is the highest PEP utilization any setup has seen.
	PEPPeakRho float64 `json:"pep_peak_rho"`
}

// CurrentProgress snapshots the in-flight run state from the Default
// registry; elapsed is the caller's clock (the registry has no start time).
func CurrentProgress(elapsed time.Duration) Progress {
	get := func(name string) obs.Snapshot {
		s, _ := obs.Default.Get(name)
		return s
	}
	p := Progress{
		ElapsedSeconds: elapsed.Seconds(),
		Phase:          "pass A",
		CustomersDone:  int64(get("netsim_customers_done_total").Value),
		CustomersTotal: int64(get("netsim_customers_total").Value),
		Flows:          int64(get("netsim_flows_total").Value),
		PEPPeakRho:     get("pep_peak_rho").Value,
	}
	if get("netsim_pass_a_seconds").Value > 0 {
		p.Phase = "pass B"
	}
	if get("netsim_pass_b_seconds").Value > 0 {
		p.Phase = "finalize"
	}
	if bu := get("mac_beam_utilization_ratio"); bu.Count > 0 {
		p.BeamUtilMean = bu.Mean()
	}
	return p
}

// ProgressLine renders the live one-line run summary the CLIs print under
// -progress: phase, customer progress with ETA, flow throughput, and the
// load gauges (beam utilization so far, peak PEP rho).
func ProgressLine(elapsed time.Duration) string {
	p := CurrentProgress(elapsed)
	line := fmt.Sprintf("[%s %s] customers %d/%d · flows %d (%s) · %s",
		elapsed.Round(time.Second), p.Phase, p.CustomersDone, p.CustomersTotal,
		p.Flows, obs.FormatRate(p.Flows, elapsed), obs.ETA(p.CustomersDone, p.CustomersTotal, elapsed))
	if p.BeamUtilMean > 0 {
		line += fmt.Sprintf(" · beam-util≈%.2f", p.BeamUtilMean)
	}
	if p.PEPPeakRho > 0 {
		line += fmt.Sprintf(" · pep-rho-peak %.2f", p.PEPPeakRho)
	}
	return line
}
