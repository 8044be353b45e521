// Package satwatch reproduces "When Satellite is All You Have: Watching
// the Internet from 550 ms" (IMC 2022): a passive-measurement pipeline for
// GEO satellite internet access, built over a full synthetic deployment —
// satellite geometry, spot beams with a TDMA/slotted-Aloha MAC, a PEP with
// finite resources, QoS shaping, a CDN/DNS ecosystem with the paper's
// server-selection pathologies, and a Tstat-style probe at the single
// ground station.
//
// The typical use is three calls:
//
//	p := satwatch.New(satwatch.WithCustomers(400), satwatch.WithDays(2))
//	res, err := p.Run()
//	fmt.Println(res.RenderAll())
//
// Run generates the deployment's traffic, measures it with the probe, and
// materializes every table and figure of the paper's evaluation. The
// Results fields expose the typed experiment outputs for programmatic use.
package satwatch

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"

	"satwatch/internal/analytics"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/prof"
	"satwatch/internal/report"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
)

// Pipeline is a configured end-to-end run: generate → probe → analyze.
type Pipeline struct {
	cfg netsim.Config
	// ThroughputMinBytes is the Figure 11 bulk-flow threshold. The paper
	// uses 10 MB on three months of traffic; scaled runs default to 5 MB.
	ThroughputMinBytes int64
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithCustomers sets the population size.
func WithCustomers(n int) Option { return func(p *Pipeline) { p.cfg.Customers = n } }

// WithDays sets the observation window in days.
func WithDays(n int) Option { return func(p *Pipeline) { p.cfg.Days = n } }

// WithSeed sets the run's deterministic seed.
func WithSeed(seed uint64) Option { return func(p *Pipeline) { p.cfg.Seed = seed } }

// WithConstellation selects the constellation backend serving the
// deployment: "geo" (the paper's 550 ms bent pipe, the default) or "leo"
// (a low-orbit shell with 15–60 ms time-varying RTTs, satellite
// handovers, and rotating gateways). Unknown names fail the run.
func WithConstellation(name string) Option {
	return func(p *Pipeline) { p.cfg.Constellation = name }
}

// WithParallelism sets the number of simulation workers for both passes
// (0 uses GOMAXPROCS). Results depend only on the seed, not on the worker
// count: outputs are byte-identical at any parallelism.
func WithParallelism(n int) Option { return func(p *Pipeline) { p.cfg.Parallelism = n } }

// WithIntentCacheBytes bounds the memory the simulator spends keeping
// pass-A flow intents for reuse in pass B (0 uses the 512 MiB default;
// negative disables the cache). The budget trades memory for regeneration
// time and never affects outputs.
func WithIntentCacheBytes(n int64) Option {
	return func(p *Pipeline) { p.cfg.IntentCacheBytes = n }
}

// WithTracer attaches a flow-trace recorder: sampled flows get a
// per-flow latency-decomposition span tree written as JSONL (see
// internal/trace). The caller owns the tracer and must Close it after
// Run to flush the buffered flows.
func WithTracer(tr *trace.Tracer) Option { return func(p *Pipeline) { p.cfg.Trace = tr } }

// WithThroughputThreshold sets the Figure 11 minimum flow size in bytes.
func WithThroughputThreshold(b int64) Option {
	return func(p *Pipeline) { p.ThroughputMinBytes = b }
}

// Ablations (DESIGN.md A1-A4).

// WithoutPEP removes the PEP processing delays (ablation A1).
func WithoutPEP() Option { return func(p *Pipeline) { p.cfg.DisablePEP = true } }

// WithoutMAC replaces MAC access delays with ideal zero-delay access (A4).
func WithoutMAC() Option { return func(p *Pipeline) { p.cfg.DisableMAC = true } }

// WithAfricanGroundStation adds a second gateway in Africa (A2).
func WithAfricanGroundStation() Option {
	return func(p *Pipeline) { p.cfg.AfricanGroundStation = true }
}

// WithForcedOperatorDNS makes all customers use the operator resolver (A3).
func WithForcedOperatorDNS() Option {
	return func(p *Pipeline) { p.cfg.ForceOperatorDNS = true }
}

// New builds a pipeline with laptop-scale defaults (400 customers, 2 days).
func New(opts ...Option) *Pipeline {
	p := &Pipeline{cfg: netsim.DefaultConfig(), ThroughputMinBytes: 5 << 20}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Results holds the enriched dataset plus every materialized experiment.
type Results struct {
	// Output is the raw simulation product: anonymized flow and DNS logs
	// plus operator metadata.
	Output *netsim.Output
	// Dataset is the enriched analysis view.
	Dataset *analytics.Dataset

	Table1 report.Table1
	Fig2   report.Fig2
	Fig3   report.Fig3
	Fig4   report.Fig4
	Fig5   report.Fig5
	Fig6   report.Fig6
	Fig7   report.Fig7
	Fig8a  report.Fig8a
	Fig8b  report.Fig8b
	Fig9   report.Fig9
	Fig10  report.Fig10
	Table2 report.ResolverImpact
	Fig11  report.Fig11
	// Table3 is the Appendix A service-classification rule table.
	Table3 report.Table3
	// Tables45 is the appendix version of Table 2, covering four
	// countries.
	Tables45 report.ResolverImpact
	// Signatures is the region-level latency-signature experiment:
	// per-country satellite-RTT distribution fingerprints that identify
	// the serving orbit family (GEO vs LEO) from the logs alone. Not a
	// paper table; rendered by satreport after the paper's figures.
	Signatures report.Signatures
}

// Run executes the pipeline. The run's records are analyzed at the logs'
// resolution (whole microseconds), so the report is the one a replay of
// the run's logs gives: satgen then satreport -from prints it too.
func (p *Pipeline) Run() (*Results, error) {
	out, err := netsim.Run(p.cfg)
	if err != nil {
		return nil, err
	}
	// Analysis runs as the stage=report profile stage; its allocation
	// delta joins the simulator's per-stage accounting in Stats.
	var res *Results
	alloc := prof.Stage(context.Background(), prof.StageReport, func(context.Context) {
		tstat.TruncateToLog(out.Flows, out.DNS)
		res = p.Analyze(out, analytics.NewDataset(out, p.cfg.Days))
	})
	if out.Stats.StageAllocs != nil {
		out.Stats.StageAllocs["report"] = alloc
	}
	return res, nil
}

// Analyze materializes all experiments from an existing output (useful
// when replaying saved logs). The builders only read ds and each fills its
// own fields of the Results, so they run side by side on up to
// Config.Parallelism goroutines (0 uses GOMAXPROCS), the costliest first.
func (p *Pipeline) Analyze(out *netsim.Output, ds *analytics.Dataset) *Results {
	res := &Results{Output: out, Dataset: ds}
	builders := []func(){
		func() {
			res.Tables45 = report.BuildResolverImpact(ds, "CD", "ZA", "NG", "GB")
			res.Table2 = restrictImpact(res.Tables45, "GB", "NG")
		},
		func() { res.Fig9 = report.BuildFig9(ds) },
		func() { res.Fig5 = report.BuildFig5(ds) },
		func() { res.Table1 = report.BuildTable1(ds) },
		func() { res.Fig2 = report.BuildFig2(ds) },
		func() { res.Fig3 = report.BuildFig3(ds) },
		func() { res.Fig4 = report.BuildFig4(ds) },
		func() { res.Fig6 = report.BuildFig6(ds) },
		func() { res.Fig7 = report.BuildFig7(ds) },
		func() { res.Fig8a = report.BuildFig8a(ds) },
		func() { res.Fig8b = report.BuildFig8b(ds, out.Beams) },
		func() { res.Fig10 = report.BuildFig10(ds) },
		func() { res.Fig11 = report.BuildFig11(ds, p.ThroughputMinBytes) },
		func() { res.Table3 = report.BuildTable3() },
		func() { res.Signatures = report.BuildSignatures(ds) },
	}
	workers := p.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, build := range builders {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			build()
			<-slots
		}()
	}
	wg.Wait()
	return res
}

// restrictImpact is BuildResolverImpact for a subset of the countries t
// was built for: Table 2's rows are rows of Tables 4-5, and a second walk
// over the flows would compute the same means from the same samples.
func restrictImpact(t report.ResolverImpact, countries ...geo.CountryCode) report.ResolverImpact {
	out := report.ResolverImpact{Countries: countries,
		AvgRTT: map[analytics.DomainResolverKey]float64{},
		Count:  map[analytics.DomainResolverKey]int{}}
	for key, avg := range t.AvgRTT {
		if slices.Contains(countries, key.Country) {
			out.AvgRTT[key] = avg
			out.Count[key] = t.Count[key]
		}
	}
	return out
}

// Config returns the underlying simulation configuration.
func (p *Pipeline) Config() netsim.Config { return p.cfg }

// RenderAll prints every experiment in the paper's order.
func (r *Results) RenderAll() string {
	var sb strings.Builder
	for _, s := range []string{
		r.Table1.Render(), r.Fig2.Render(), r.Fig3.Render(), r.Fig4.Render(),
		r.Fig5.Render(), r.Fig6.Render(), r.Fig7.Render(), r.Fig8a.Render(),
		r.Fig8b.Render(), r.Fig9.Render(), r.Fig10.Render(), r.Table2.Render(),
		r.Fig11.Render(), r.Table3.Render(),
	} {
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Top6 re-exports the paper's six focus countries for callers of the API.
func Top6() []geo.CountryCode { return geo.Top6() }
