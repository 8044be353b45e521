package report

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"satwatch/internal/analytics"
	"satwatch/internal/cdn"
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/services"
	"satwatch/internal/tstat"
)

var (
	cdClient = netip.MustParseAddr("88.16.0.2")
	esClient = netip.MustParseAddr("88.20.0.2")
)

// handDataset builds a deterministic small dataset for renderer tests.
func handDataset() *analytics.Dataset {
	srvW := cdn.ServerAddr("e1.whatsapp.net", cdn.RegionEuropeNear, 0)
	srvA := cdn.ServerAddr("scooper.news", cdn.RegionAfrica, 0)
	out := &netsim.Output{
		Meta: map[netip.Addr]netsim.CustomerMeta{
			cdClient: {Country: "CD", Beam: 1, Multiplex: 20, Resolver: dnssim.ResolverGoogle},
			esClient: {Country: "ES", Beam: 10, Multiplex: 1, Resolver: dnssim.ResolverOperator},
		},
		CountryPrefixes: map[netip.Prefix]geo.CountryCode{
			netip.MustParsePrefix("88.16.0.0/16"): "CD",
			netip.MustParsePrefix("88.20.0.0/16"): "ES",
		},
		Beams: []netsim.BeamStat{
			{Beam: 1, Country: "CD", PeakUtil: 0.95},
			{Beam: 10, Country: "ES", PeakUtil: 0.3},
		},
	}
	mk := func(client, server netip.Addr, proto tstat.Protocol, domain string, start time.Duration, down int64, sat, ground time.Duration) tstat.FlowRecord {
		return tstat.FlowRecord{
			Client: client, Server: server, CPort: 1024, SPort: 443,
			Proto: proto, Domain: domain,
			Start: start, End: start + 8*time.Second,
			BytesUp: 50_000, BytesDown: down, PktsUp: 40, PktsDown: 400,
			SatRTT:    sat,
			GroundRTT: tstat.RTTStats{Samples: 2, Avg: ground, Min: ground, Max: ground},
		}
	}
	for i := 0; i < 300; i++ {
		// Congolese peak-window chat flows.
		out.Flows = append(out.Flows, mk(cdClient, srvW, tstat.ProtoHTTPS, "e1.whatsapp.net",
			13*time.Hour+time.Duration(i)*time.Second, 8<<20, 1800*time.Millisecond, 22*time.Millisecond))
		// Spanish evening flows.
		out.Flows = append(out.Flows, mk(esClient, srvW, tstat.ProtoHTTPS, "e1.whatsapp.net",
			18*time.Hour+time.Duration(i)*time.Second, 2<<20, 700*time.Millisecond, 18*time.Millisecond))
	}
	// A hairpinned African flow and a QUIC flow for variety.
	out.Flows = append(out.Flows, mk(cdClient, srvA, tstat.ProtoHTTPS, "scooper.news",
		2*time.Hour, 1<<20, 600*time.Millisecond, 340*time.Millisecond))
	out.Flows = append(out.Flows, mk(esClient, srvW, tstat.ProtoQUIC, "www.youtube.com",
		19*time.Hour, 6<<20, 0, 14*time.Millisecond))
	out.DNS = []tstat.DNSRecord{
		{Client: cdClient, Resolver: netip.MustParseAddr("8.8.8.8"), Query: "e1.whatsapp.net", T: 13 * time.Hour, ResponseTime: 23 * time.Millisecond},
		{Client: esClient, Resolver: netip.MustParseAddr("185.12.64.53"), Query: "www.google.com", T: 18 * time.Hour, ResponseTime: 4 * time.Millisecond},
	}
	return analytics.NewDataset(out, 1)
}

func TestTable1Build(t *testing.T) {
	ds := handDataset()
	t1 := BuildTable1(ds)
	if t1.Total == 0 {
		t.Fatal("no volume")
	}
	sum := 0.0
	for _, v := range t1.SharePct {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("shares sum to %v", sum)
	}
	if !strings.Contains(t1.Render(), "TCP/HTTPS") {
		t.Fatal("render missing rows")
	}
}

func TestFig2Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig2(ds)
	rows := map[geo.CountryCode]Fig2Row{}
	for _, r := range f.Rows {
		rows[r.Country] = r
	}
	cd, ok := rows["CD"]
	if !ok {
		t.Fatal("no CD row")
	}
	es := rows["ES"]
	if cd.VolumeSharePct <= es.VolumeSharePct {
		t.Fatal("CD should carry more volume")
	}
	if cd.CustomerSharePct != 50 {
		t.Fatalf("CD customer share %v", cd.CustomerSharePct)
	}
	if len(rows) != len(f.Rows) {
		t.Fatal("duplicate country rows")
	}
	if !strings.Contains(f.Render(), "Congo") {
		t.Fatal("render missing country")
	}
}

func TestFig4Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig4(ds)
	// Spanish flows at 18-19 UTC.
	if p := f.PeakHourUTC("ES"); p != 18 && p != 19 {
		t.Fatalf("ES peak %d", p)
	}
	if f.Normalized["ES"][f.PeakHourUTC("ES")] != 1.0 {
		t.Fatal("peak not normalized to 1")
	}
	if !strings.Contains(f.Render(), "peak") {
		t.Fatal("render broken")
	}
}

func TestFig5Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig5(ds)
	if f.Flows["CD"] == nil || f.Flows["CD"].Len() != 1 {
		t.Fatalf("CD customer-days: %+v", f.Flows["CD"])
	}
	// 301 flows in the CD day: above the 250 threshold → volume counted.
	if f.Down["CD"] == nil || f.Down["CD"].Len() != 1 {
		t.Fatal("active CD day not counted")
	}
	if !strings.Contains(f.Render(), "P(flows<=250)") {
		t.Fatal("render broken")
	}
}

func TestFig6Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig6(ds)
	if len(f.Rows) != 12 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	// Both customer-days are active (301/302 flows) and both used WhatsApp.
	if f.Pct["Whatsapp"]["CD"] != 100 {
		t.Fatalf("CD WhatsApp penetration %v", f.Pct["Whatsapp"]["CD"])
	}
	if !strings.Contains(f.Render(), "Whatsapp") {
		t.Fatal("render broken")
	}
}

func TestFig7Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig7(ds)
	if f.Median(services.CategoryChat, "CD") <= f.Median(services.CategoryChat, "ES") {
		t.Fatal("CD chat volume should dominate")
	}
	if !strings.Contains(f.Render(), "Chat") {
		t.Fatal("render broken")
	}
}

func TestFig8aBuild(t *testing.T) {
	ds := handDataset()
	f := BuildFig8a(ds)
	if f.Peak["CD"] == nil || f.Peak["CD"].Median() != 1.8 {
		t.Fatalf("CD peak: %+v", f.Peak["CD"])
	}
	if f.Night["CD"] == nil || f.Night["CD"].Median() != 0.6 {
		t.Fatal("CD night sample missing")
	}
	if !strings.Contains(f.Render(), "night") {
		t.Fatal("render broken")
	}
}

func TestFig8bBuild(t *testing.T) {
	ds := handDataset()
	f := BuildFig8b(ds, []netsim.BeamStat{
		{Beam: 1, Country: "CD", PeakUtil: 0.95},
		{Beam: 10, Country: "ES", PeakUtil: 0.3},
	})
	if len(f.Rows) == 0 {
		t.Fatal("no beam rows")
	}
	for _, r := range f.Rows {
		if r.Beam == 1 && r.UtilNorm != 1.0 {
			t.Fatalf("busiest beam norm %v", r.UtilNorm)
		}
	}
	if !strings.Contains(f.Render(), "Beam") {
		t.Fatal("render broken")
	}
}

func TestFig9Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig9(ds)
	if f.Samples["ES"].CDF(0.05) < 0.9 {
		t.Fatal("Spanish traffic should be near the gateway")
	}
	if f.Samples["CD"].CCDF(0.25) == 0 {
		t.Fatal("hairpin bump lost")
	}
	if !strings.Contains(f.Render(), "median") {
		t.Fatal("render broken")
	}
}

func TestFig10Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig10(ds)
	if f.SharePct["CD"][dnssim.ResolverGoogle] != 100 {
		t.Fatalf("CD google share %v", f.SharePct["CD"][dnssim.ResolverGoogle])
	}
	if f.MedianResponse[dnssim.ResolverOperator] != 0.004 {
		t.Fatalf("operator median %v", f.MedianResponse[dnssim.ResolverOperator])
	}
	if !strings.Contains(f.Render(), "Operator-EU") {
		t.Fatal("render broken")
	}
}

func TestResolverImpactBuild(t *testing.T) {
	ds := handDataset()
	ri := BuildResolverImpact(ds, "CD", "ES")
	if v, ok := ri.Cell("CD", dnssim.ResolverGoogle, "whatsapp.net"); !ok || v < 0.0219 || v > 0.0221 {
		t.Fatalf("cell %v/%v", v, ok)
	}
	if _, ok := ri.Cell("CD", dnssim.ResolverOperator, "whatsapp.net"); ok {
		t.Fatal("phantom cell")
	}
	if len(ri.Domains()) == 0 {
		t.Fatal("no domains")
	}
	if !strings.Contains(ri.Render(), "whatsapp.net") {
		t.Fatal("render broken")
	}
}

func TestFig11Build(t *testing.T) {
	ds := handDataset()
	f := BuildFig11(ds, 1<<20)
	if f.All["CD"] == nil || f.All["CD"].Len() == 0 {
		t.Fatal("no bulk samples")
	}
	// 8 MiB over 8s ≈ 8.4 Mb/s.
	med := f.Peak["CD"].Median()
	if med < 8e6 || med > 9e6 {
		t.Fatalf("CD peak goodput %v", med)
	}
	if !strings.Contains(f.Render(), "Mb/s") {
		t.Fatal("render broken")
	}
}

func TestFormatters(t *testing.T) {
	if fmtBytes(1.5e9) != "1.50 GB" {
		t.Fatalf("fmtBytes %q", fmtBytes(1.5e9))
	}
	if fmtBytes(2.5e12) != "2.50 TB" {
		t.Fatal("TB formatting")
	}
	if fmtPct(0) != "0" || fmtPct(0.05) != "0.05" || fmtPct(12.34) != "12.3" {
		t.Fatal("fmtPct")
	}
	if fmtMs(0.0215) != "21.5 ms" {
		t.Fatalf("fmtMs %q", fmtMs(0.0215))
	}
	if fmtMbps(30e6) != "30.0 Mb/s" {
		t.Fatal("fmtMbps")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := &table{header: []string{"a", "bb"}}
	tab.add("xxx", "y")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator not aligned with header")
	}
}
