package analytics

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/services"
	"satwatch/internal/tstat"
)

var (
	cdClient = netip.MustParseAddr("77.16.0.2") // inside the fake CD prefix
	esClient = netip.MustParseAddr("77.20.0.2") // inside the fake ES prefix
)

// handDataset builds a small dataset without running the simulator.
func handDataset() *Dataset { return NewDataset(handOutput(), 1) }

func handOutput() *netsim.Output {
	srvWhatsapp := cdn.ServerAddr("e1.whatsapp.net", cdn.RegionEuropeNear, 0)
	srvAfrica := cdn.ServerAddr("scooper.news", cdn.RegionAfrica, 0)
	out := &netsim.Output{
		Meta: map[netip.Addr]netsim.CustomerMeta{
			cdClient: {Country: "CD", Beam: 1, Multiplex: 20, Resolver: dnssim.ResolverGoogle},
			esClient: {Country: "ES", Beam: 10, Multiplex: 1, Resolver: dnssim.ResolverOperator},
		},
		CountryPrefixes: map[netip.Prefix]geo.CountryCode{
			netip.MustParsePrefix("77.16.0.0/16"): "CD",
			netip.MustParsePrefix("77.20.0.0/16"): "ES",
		},
	}
	mk := func(client netip.Addr, server netip.Addr, domain string, start time.Duration, down int64, sat time.Duration, ground time.Duration) tstat.FlowRecord {
		return tstat.FlowRecord{
			Client: client, Server: server, CPort: 1024, SPort: 443,
			Proto: tstat.ProtoHTTPS, Domain: domain,
			Start: start, End: start + 10*time.Second,
			BytesUp: 1000, BytesDown: down, PktsUp: 10, PktsDown: 100,
			SatRTT:    sat,
			GroundRTT: tstat.RTTStats{Samples: 3, Avg: ground, Min: ground, Max: ground},
		}
	}
	out.Flows = []tstat.FlowRecord{
		// Congo, 14:00 local (13:00 UTC, CD is UTC+1): peak window.
		mk(cdClient, srvWhatsapp, "e1.whatsapp.net", 13*time.Hour, 5<<20, 1500*time.Millisecond, 20*time.Millisecond),
		// Congo, 03:00 local (02:00 UTC): night window.
		mk(cdClient, srvAfrica, "scooper.news", 2*time.Hour, 1<<20, 600*time.Millisecond, 340*time.Millisecond),
		// Spain, 19:00 local (18:00 UTC): peak window.
		mk(esClient, srvWhatsapp, "e1.whatsapp.net", 18*time.Hour, 2<<20, 650*time.Millisecond, 18*time.Millisecond),
	}
	out.DNS = []tstat.DNSRecord{
		{Client: cdClient, Resolver: netip.MustParseAddr("8.8.8.8"), Query: "e1.whatsapp.net",
			T: 13 * time.Hour, ResponseTime: 22 * time.Millisecond},
		{Client: esClient, Resolver: netip.MustParseAddr("185.12.64.53"), Query: "www.google.com",
			T: 18 * time.Hour, ResponseTime: 4 * time.Millisecond},
	}
	return out
}

// TestNewDatasetParallelismInvariance: the enrichment is the same at any
// worker count, more workers than flows and no flows included; every
// Flow points at its own record of the Output, which is left as it was;
// and the per-chunk memo answers what the classifier would.
func TestNewDatasetParallelismInvariance(t *testing.T) {
	out := handOutput()
	domains := []string{"e1.whatsapp.net", "scooper.news", "", "www.google.com", "E1.WhatsApp.net.", "rr1.googlevideo.com"}
	clients := []netip.Addr{cdClient, esClient,
		netip.MustParseAddr("77.16.0.9"), // no metadata: country through the prefix join
		netip.MustParseAddr("9.9.9.9")}   // unknown altogether
	for i := 0; i < 34; i++ {
		rec := out.Flows[i%3]
		rec.Client, rec.Domain = clients[i%len(clients)], domains[i%len(domains)]
		rec.Start += time.Duration(i) * time.Minute
		out.Flows = append(out.Flows, rec)
	}
	before := append([]tstat.FlowRecord(nil), out.Flows...)

	out.Stats.Workers = 1
	want := NewDataset(out, 1)
	for i := range want.Flows {
		f := &want.Flows[i]
		if f.FlowRecord != &out.Flows[i] {
			t.Fatalf("flow %d does not point at its record of the Output", i)
		}
		svc, _ := services.Classify(f.Domain)
		if (svc == nil) != (f.Service == "") || (svc != nil && (svc.Name != f.Service || svc.Category != f.Category)) {
			t.Fatalf("flow %d: %q enriched as %q/%q, the classifier says %+v", i, f.Domain, f.Service, f.Category, svc)
		}
	}
	if got := want.Flows[5].Country; got != "CD" || want.Flows[5].HasMeta {
		t.Fatalf("prefix join: country %q, HasMeta %v", got, want.Flows[5].HasMeta)
	}
	for _, workers := range []int{0, 2, 8, 64} {
		out.Stats.Workers = workers
		if got := NewDataset(out, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d: dataset differs from Workers=1", workers)
		}
	}
	if !reflect.DeepEqual(out.Flows, before) {
		t.Error("NewDataset modified the Output's flows")
	}

	out.Flows = nil
	for _, workers := range []int{1, 8} {
		out.Stats.Workers = workers
		if ds := NewDataset(out, 1); len(ds.Flows) != 0 || len(ds.DNS) != 2 {
			t.Errorf("Workers=%d, no flows: %d flows, %d DNS", workers, len(ds.Flows), len(ds.DNS))
		}
	}
}

func TestEnrichment(t *testing.T) {
	ds := handDataset()
	if len(ds.Flows) != 3 {
		t.Fatalf("%d flows", len(ds.Flows))
	}
	f := ds.Flows[0]
	if f.Country != "CD" || !f.HasMeta || f.Meta.Beam != 1 {
		t.Fatalf("metadata join failed: %+v", f)
	}
	if f.Service != "Whatsapp" || f.Category != services.CategoryChat {
		t.Fatalf("service classification: %q/%q", f.Service, f.Category)
	}
	if f.Region != cdn.RegionEuropeNear {
		t.Fatalf("region recovery: %q", f.Region)
	}
	if ds.Flows[1].Region != cdn.RegionAfrica {
		t.Fatal("African region not recovered")
	}
}

func TestLocalHourAndWindows(t *testing.T) {
	// 13:00 UTC is 14:00 in Congo (UTC+1): peak window.
	if h := LocalHour(13*time.Hour, "CD"); h != 14 {
		t.Fatalf("CD local hour %d", h)
	}
	if !IsPeak(14) || IsNight(14) {
		t.Fatal("window classification broken")
	}
	if !IsNight(3) || IsPeak(3) {
		t.Fatal("night window broken")
	}
	// Unknown country: UTC.
	if h := LocalHour(13*time.Hour, "XX"); h != 13 {
		t.Fatalf("unknown-country hour %d", h)
	}
	// Day boundaries wrap.
	if h := LocalHour(23*time.Hour+30*time.Minute, "ZA"); h != 1 {
		t.Fatalf("wrap hour %d", h)
	}
	if DayOf(25*time.Hour) != 1 || DayOf(23*time.Hour) != 0 {
		t.Fatal("DayOf broken")
	}
}

func TestSatRTTWindowSplit(t *testing.T) {
	ds := handDataset()
	night, peak := ds.SatRTTSamples()
	if len(night["CD"]) != 1 || night["CD"][0] != 0.6 {
		t.Fatalf("CD night samples %v", night["CD"])
	}
	if len(peak["CD"]) != 1 || peak["CD"][0] != 1.5 {
		t.Fatalf("CD peak samples %v", peak["CD"])
	}
	if len(peak["ES"]) != 1 {
		t.Fatalf("ES peak samples %v", peak["ES"])
	}
}

func TestSatRTTByBeam(t *testing.T) {
	ds := handDataset()
	byBeam := ds.SatRTTByBeam()
	if len(byBeam[1]) != 1 {
		t.Fatalf("beam 1 samples %v", byBeam[1])
	}
}

func TestGroupByCustomerDay(t *testing.T) {
	ds := handDataset()
	aggs := ds.GroupByCustomerDay()
	if len(aggs) != 2 {
		t.Fatalf("%d customer-days", len(aggs))
	}
	cd := aggs[CustomerDay{Client: cdClient, Day: 0}]
	if cd == nil || cd.Flows != 2 {
		t.Fatalf("CD aggregate %+v", cd)
	}
	if !cd.Services["Whatsapp"] {
		t.Fatal("service presence lost")
	}
	if cd.CategoryBytes[services.CategoryChat] == 0 {
		t.Fatal("category bytes lost")
	}
}

func TestVolumeRollups(t *testing.T) {
	ds := handDataset()
	byProto := ds.VolumeByProtocol()
	if byProto[tstat.ProtoHTTPS] == 0 {
		t.Fatal("no HTTPS volume")
	}
	byCP := ds.VolumeByCountryProtocol()
	if byCP["CD"][tstat.ProtoHTTPS] <= byCP["ES"][tstat.ProtoHTTPS] {
		t.Fatal("per-country volumes wrong")
	}
	hourly := ds.HourlyVolume()
	if hourly["CD"][13] == 0 || hourly["CD"][2] == 0 {
		t.Fatal("hourly rollup lost volume")
	}
	if hourly["ES"][18] == 0 {
		t.Fatal("Spain evening volume missing")
	}
}

func TestGroundRTTSamplesWeighting(t *testing.T) {
	ds := handDataset()
	unweighted := ds.GroundRTTSamples(false)
	weighted := ds.GroundRTTSamples(true)
	if len(unweighted["CD"]) != 2 {
		t.Fatalf("CD unweighted %d", len(unweighted["CD"]))
	}
	// The 5 MiB flow gets more weight than the 1 MiB one.
	if len(weighted["CD"]) <= len(unweighted["CD"]) {
		t.Fatal("volume weighting had no effect")
	}
}

func TestThroughputSamples(t *testing.T) {
	ds := handDataset()
	_, peak, all := ds.ThroughputSamples(1 << 20)
	if len(all["CD"]) != 2 || len(all["ES"]) != 1 {
		t.Fatalf("bulk flows: CD=%d ES=%d", len(all["CD"]), len(all["ES"]))
	}
	// 5 MiB over 10s ≈ 4.2 Mb/s.
	want := float64(5<<20) * 8 / 10
	got := peak["CD"][0]
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("goodput %v, want ≈%v", got, want)
	}
	// Threshold filters.
	_, _, none := ds.ThroughputSamples(100 << 20)
	if len(none["CD"]) != 0 {
		t.Fatal("threshold not applied")
	}
}

func TestResolverAggregates(t *testing.T) {
	ds := handDataset()
	usage := ds.ResolverUsage()
	if usage["CD"][dnssim.ResolverGoogle] != 1 {
		t.Fatalf("CD usage %v", usage["CD"])
	}
	if usage["ES"][dnssim.ResolverOperator] != 1 {
		t.Fatalf("ES usage %v", usage["ES"])
	}
	times := ds.ResolverResponseTimes()
	if len(times[dnssim.ResolverGoogle]) != 1 || times[dnssim.ResolverGoogle][0] != 0.022 {
		t.Fatalf("google times %v", times[dnssim.ResolverGoogle])
	}
}

func TestGroundRTTByDomainResolver(t *testing.T) {
	ds := handDataset()
	cells := ds.GroundRTTByDomainResolver()
	key := DomainResolverKey{Country: "CD", Resolver: dnssim.ResolverGoogle, Domain: "whatsapp.net"}
	if len(cells[key]) != 1 {
		t.Fatalf("cell %v missing: %v", key, cells)
	}
	key2 := DomainResolverKey{Country: "CD", Resolver: dnssim.ResolverGoogle, Domain: "scooper.news"}
	if len(cells[key2]) != 1 {
		t.Fatal("second-level domain aggregation broken")
	}
}
