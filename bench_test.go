package satwatch

// In-process `go test -bench` benchmarks for measuring while you work: one
// per paper table/figure (DESIGN.md §3), the ablations (A1-A4) and the
// pipeline end to end. Each regenerates its experiment from a shared
// reference run and reports the experiment's headline numbers via
// b.ReportMetric, so `go test -bench .` prints the rows/series the paper
// reports next to the timing. They gate nothing: a speed or allocation
// claim is made with the repository benchmark (benchmark/README.md).
//
// Run with: go test -bench=. -benchmem

import (
	"io"
	"sync"
	"testing"

	"satwatch/internal/analytics"
	"satwatch/internal/dnssim"
	"satwatch/internal/netsim"
	"satwatch/internal/report"
	"satwatch/internal/services"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
)

var (
	benchOnce sync.Once
	benchRes  *Results
	benchErr  error
)

// benchResults runs the shared bench-scale pipeline once (120 customers,
// 1 day: a few seconds).
func benchResults(b *testing.B) *Results {
	b.Helper()
	benchOnce.Do(func() {
		p := New(WithCustomers(120), WithDays(1), WithSeed(42))
		benchRes, benchErr = p.Run()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

func BenchmarkPipelineEndToEnd(b *testing.B) {
	// The full generate→probe→analyze pipeline at small scale. No tracer
	// is attached, so this IS the tracing-disabled baseline: the only cost
	// flight recording adds here is one nil-check per flow in the worker
	// loop (see internal/trace BenchmarkStartDisabled for that path in
	// isolation). Compare against BenchmarkPipelineEndToEndTraced to see
	// the overhead of recording every flow.
	for i := 0; i < b.N; i++ {
		p := New(WithCustomers(30), WithDays(1), WithSeed(uint64(i)))
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Dataset.Flows)), "flows")
	}
}

// BenchmarkPipelineEndToEndTraced is the same pipeline with the flight
// recorder sampling every flow — the worst-case tracing overhead.
func BenchmarkPipelineEndToEndTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := trace.New(io.Discard, 1)
		p := New(WithCustomers(30), WithDays(1), WithSeed(uint64(i)))
		p.cfg.Trace = tr
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Dataset.Flows)), "flows")
	}
}

func BenchmarkTable1ProtocolBreakdown(b *testing.B) {
	r := benchResults(b)
	var t1 report.Table1
	for i := 0; i < b.N; i++ {
		t1 = report.BuildTable1(r.Dataset)
	}
	b.ReportMetric(t1.SharePct[tstat.ProtoHTTPS], "https_pct")
	b.ReportMetric(t1.SharePct[tstat.ProtoQUIC], "quic_pct")
	b.ReportMetric(t1.SharePct[tstat.ProtoHTTP], "http_pct")
}

func BenchmarkFig2CountryBreakdown(b *testing.B) {
	r := benchResults(b)
	var f report.Fig2
	for i := 0; i < b.N; i++ {
		f = report.BuildFig2(r.Dataset)
	}
	if cd, ok := fig2Row(f, "CD"); ok {
		b.ReportMetric(cd.VolumeSharePct, "congo_vol_pct")
		b.ReportMetric(cd.CustomerSharePct, "congo_cust_pct")
	}
}

func BenchmarkFig3ProtocolPerCountry(b *testing.B) {
	r := benchResults(b)
	var f report.Fig3
	for i := 0; i < b.N; i++ {
		f = report.BuildFig3(r.Dataset)
	}
	b.ReportMetric(f.SharePct["DE"][tstat.ProtoTCPOther], "de_othertcp_pct")
}

func BenchmarkFig4DailyTrends(b *testing.B) {
	r := benchResults(b)
	var f report.Fig4
	for i := 0; i < b.N; i++ {
		f = report.BuildFig4(r.Dataset)
	}
	b.ReportMetric(float64(f.PeakHourUTC("CD")), "congo_peak_utc_h")
	b.ReportMetric(float64(f.PeakHourUTC("ES")), "spain_peak_utc_h")
}

func BenchmarkFig5PerCustomerCCDF(b *testing.B) {
	r := benchResults(b)
	var f report.Fig5
	for i := 0; i < b.N; i++ {
		f = report.BuildFig5(r.Dataset)
	}
	if s := f.Flows["ES"]; s != nil {
		b.ReportMetric(100*s.CDF(250), "spain_below_knee_pct")
	}
	if s := f.Flows["CD"]; s != nil {
		b.ReportMetric(s.Median(), "congo_median_flows")
	}
}

func BenchmarkFig6ServicePopularity(b *testing.B) {
	r := benchResults(b)
	var f report.Fig6
	for i := 0; i < b.N; i++ {
		f = report.BuildFig6(r.Dataset)
	}
	b.ReportMetric(f.Pct["Whatsapp"]["CD"], "whatsapp_cd_pct")
	b.ReportMetric(f.Pct["Netflix"]["IE"], "netflix_ie_pct")
}

func BenchmarkFig7CategoryVolumes(b *testing.B) {
	r := benchResults(b)
	var f report.Fig7
	for i := 0; i < b.N; i++ {
		f = report.BuildFig7(r.Dataset)
	}
	b.ReportMetric(f.Median(services.CategoryChat, "CD")/1e6, "chat_cd_median_mb")
	b.ReportMetric(f.Median(services.CategoryChat, "ES")/1e6, "chat_es_median_mb")
}

func BenchmarkFig8aSatelliteRTT(b *testing.B) {
	r := benchResults(b)
	var f report.Fig8a
	for i := 0; i < b.N; i++ {
		f = report.BuildFig8a(r.Dataset)
	}
	if s := f.Peak["CD"]; s != nil && s.Len() > 0 {
		b.ReportMetric(s.Median(), "congo_peak_median_s")
		b.ReportMetric(100*s.CCDF(2.0), "congo_peak_over2s_pct")
	}
	if s := f.Night["ES"]; s != nil && s.Len() > 0 {
		b.ReportMetric(100*s.CDF(1.0), "spain_night_sub1s_pct")
	}
}

func BenchmarkFig8bBeamRTT(b *testing.B) {
	r := benchResults(b)
	var f report.Fig8b
	for i := 0; i < b.N; i++ {
		f = report.BuildFig8b(r.Dataset, r.Output.Beams)
	}
	worst := 0.0
	for _, row := range f.Rows {
		if row.MedianRTTs > worst {
			worst = row.MedianRTTs
		}
	}
	b.ReportMetric(worst, "worst_beam_median_s")
	b.ReportMetric(float64(len(f.Rows)), "beams")
}

func BenchmarkFig9GroundRTT(b *testing.B) {
	r := benchResults(b)
	var f report.Fig9
	for i := 0; i < b.N; i++ {
		f = report.BuildFig9(r.Dataset)
	}
	if s := f.Samples["NG"]; s != nil && s.Len() > 0 {
		b.ReportMetric(s.Median()*1e3, "nigeria_median_ms")
		b.ReportMetric(100*s.CCDF(0.25), "nigeria_hairpin_pct")
	}
	if s := f.Samples["ES"]; s != nil && s.Len() > 0 {
		b.ReportMetric(s.Median()*1e3, "spain_median_ms")
	}
}

func BenchmarkFig10DNSResolvers(b *testing.B) {
	r := benchResults(b)
	var f report.Fig10
	for i := 0; i < b.N; i++ {
		f = report.BuildFig10(r.Dataset)
	}
	b.ReportMetric(f.SharePct["CD"][dnssim.ResolverGoogle], "google_cd_pct")
	b.ReportMetric(f.MedianResponse[dnssim.ResolverOperator]*1e3, "operator_median_ms")
}

func BenchmarkTable2ResolverImpact(b *testing.B) {
	r := benchResults(b)
	var t report.ResolverImpact
	for i := 0; i < b.N; i++ {
		t = report.BuildResolverImpact(r.Dataset, "GB", "NG")
	}
	if v, ok := t.Cell("GB", dnssim.ResolverOperator, "apple.com"); ok {
		b.ReportMetric(v*1e3, "gb_apple_operator_ms")
	}
	if v, ok := t.Cell("NG", dnssim.ResolverGoogle, "apple.com"); ok {
		b.ReportMetric(v*1e3, "ng_apple_google_ms")
	}
}

func BenchmarkTables45AppendixRTT(b *testing.B) {
	r := benchResults(b)
	var t report.ResolverImpact
	for i := 0; i < b.N; i++ {
		t = report.BuildResolverImpact(r.Dataset, "CD", "ZA", "NG", "GB")
	}
	b.ReportMetric(float64(len(t.AvgRTT)), "cells")
	b.ReportMetric(float64(len(t.Domains())), "domains")
}

func BenchmarkFig11Throughput(b *testing.B) {
	r := benchResults(b)
	var f report.Fig11
	for i := 0; i < b.N; i++ {
		f = report.BuildFig11(r.Dataset, 5<<20)
	}
	if s := f.All["ES"]; s != nil && s.Len() > 0 {
		b.ReportMetric(s.Median()/1e6, "spain_median_mbps")
	}
	if s := f.All["CD"]; s != nil && s.Len() > 0 {
		b.ReportMetric(s.Median()/1e6, "congo_median_mbps")
	}
}

// --- Ablations (DESIGN.md A1-A4) ----------------------------------------

// ablation caches one simulation per variant.
var (
	ablMu    sync.Mutex
	ablCache = map[string]*Results{}
)

func ablationRun(b *testing.B, name string, opts ...Option) *Results {
	b.Helper()
	ablMu.Lock()
	defer ablMu.Unlock()
	if res, ok := ablCache[name]; ok {
		return res
	}
	opts = append([]Option{WithCustomers(60), WithDays(1), WithSeed(7)}, opts...)
	res, err := New(opts...).Run()
	if err != nil {
		b.Fatal(err)
	}
	ablCache[name] = res
	return res
}

// congoPeakMedian extracts the A1/A4 headline metric.
func congoPeakMedian(res *Results) float64 {
	if s := res.Fig8a.Peak["CD"]; s != nil && s.Len() > 0 {
		return s.Median()
	}
	return 0
}

func BenchmarkAblationPEP(b *testing.B) {
	base := ablationRun(b, "base")
	nopep := ablationRun(b, "nopep", WithoutPEP())
	var f report.Fig8a
	for i := 0; i < b.N; i++ {
		f = report.BuildFig8a(nopep.Dataset)
	}
	_ = f
	b.ReportMetric(congoPeakMedian(base), "with_pep_s")
	b.ReportMetric(congoPeakMedian(nopep), "without_pep_s")
}

func BenchmarkAblationMAC(b *testing.B) {
	base := ablationRun(b, "base")
	nomac := ablationRun(b, "nomac", WithoutMAC())
	var f report.Fig8a
	for i := 0; i < b.N; i++ {
		f = report.BuildFig8a(nomac.Dataset)
	}
	_ = f
	b.ReportMetric(congoPeakMedian(base), "with_mac_s")
	b.ReportMetric(congoPeakMedian(nomac), "ideal_access_s")
}

// africanHairpinShare is the A2 headline: share of African traffic above
// 250 ms ground RTT.
func africanHairpinShare(res *Results) float64 {
	over, n := 0, 0
	for i := range res.Dataset.Flows {
		f := &res.Dataset.Flows[i]
		if f.GroundRTT.Samples == 0 {
			continue
		}
		// Every simulated client has metadata.
		if c := res.Dataset.Meta[f.Client].Country; c == "CD" || c == "NG" || c == "ZA" {
			n++
			if f.GroundRTT.Avg.Seconds() > 0.25 {
				over++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(over) / float64(n)
}

func BenchmarkAblationAfricanGroundStation(b *testing.B) {
	base := ablationRun(b, "base")
	local := ablationRun(b, "afgw", WithAfricanGroundStation())
	var f report.Fig9
	for i := 0; i < b.N; i++ {
		f = report.BuildFig9(local.Dataset)
	}
	_ = f
	b.ReportMetric(africanHairpinShare(base), "single_gw_hairpin_pct")
	b.ReportMetric(africanHairpinShare(local), "african_gw_hairpin_pct")
}

// geoDNSMean is the A3 headline: mean ground RTT of Nigerian flows to
// GeoDNS-hosted domains.
func geoDNSMean(res *Results) float64 {
	var sum float64
	n := 0
	for key, v := range res.Dataset.GroundRTTByDomainResolver {
		if key.Country != "NG" {
			continue
		}
		for _, x := range v {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e3
}

func BenchmarkAblationForceOperatorDNS(b *testing.B) {
	base := ablationRun(b, "base")
	forced := ablationRun(b, "opdns", WithForcedOperatorDNS())
	var t report.ResolverImpact
	for i := 0; i < b.N; i++ {
		t = report.BuildResolverImpact(forced.Dataset, "NG")
	}
	_ = t
	b.ReportMetric(geoDNSMean(base), "open_resolvers_ms")
	b.ReportMetric(geoDNSMean(forced), "operator_dns_ms")
}

// BenchmarkTrackerThroughput measures the probe's segment-event path.
func BenchmarkTrackerThroughput(b *testing.B) {
	out, err := netsim.Run(netsim.Config{Customers: 20, Days: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	_ = out
	b.ResetTimer()
	// Re-running the simulation measures generation+tracking end to end.
	for i := 0; i < b.N; i++ {
		out, err := netsim.Run(netsim.Config{Customers: 20, Days: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(out.Flows)), "flows")
	}
}

// The three stages after the simulation, each on the shared reference
// run, for pair-running parent and change `go test -c` binaries.

// countWriter counts what an encoder writes, for MB/s.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// BenchmarkWriteFlows measures the flow-log encoder.
func BenchmarkWriteFlows(b *testing.B) {
	r := benchResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w countWriter
		if err := tstat.WriteFlows(&w, r.Output.Flows); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(w.n)
	}
}

// BenchmarkNewDataset measures the analytics join.
func BenchmarkNewDataset(b *testing.B) {
	r := benchResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := analytics.NewDataset(r.Output, 1)
		if len(ds.Flows) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkAnalyze measures the sixteen report builders.
func BenchmarkAnalyze(b *testing.B) {
	r := benchResults(b)
	p := New(WithDays(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.Analyze(r.Output, r.Dataset); len(res.Table1.SharePct) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}
