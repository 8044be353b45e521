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

// TestNewDatasetJoin: the Dataset's flows are the Output's own records,
// left as they were; a client without metadata joins through its prefix
// and counts under that country, but under no beam or resolver; the
// per-domain classifier memo answers what the classifier would; and an
// Output with no flows folds to no aggregates.
func TestNewDatasetJoin(t *testing.T) {
	out := handOutput()
	domains := []string{"e1.whatsapp.net", "scooper.news", "", "www.google.com", "E1.WhatsApp.net.", "rr1.googlevideo.com", "www.netflix.com"}
	prefixOnly := netip.MustParseAddr("77.16.0.9") // no metadata: country through the prefix join
	clients := []netip.Addr{cdClient, esClient, prefixOnly,
		netip.MustParseAddr("9.9.9.9")} // unknown altogether
	for i := 0; i < 34; i++ {
		rec := out.Flows[i%3]
		rec.Client, rec.Domain = clients[i%len(clients)], domains[i%len(domains)]
		rec.Start += time.Duration(i) * time.Minute
		out.Flows = append(out.Flows, rec)
	}
	before := append([]tstat.FlowRecord(nil), out.Flows...)

	ds := NewDataset(out, 1)
	if len(ds.Flows) != len(out.Flows) || &ds.Flows[0] != &out.Flows[0] {
		t.Fatal("the Dataset's flows are not the Output's own records")
	}
	if !reflect.DeepEqual(out.Flows, before) {
		t.Error("NewDataset modified the Output's flows")
	}

	volume := map[geo.CountryCode]int64{}
	days := map[CustomerDay]*PerCustomerDay{}
	withResolver := 0
	for i := range out.Flows {
		rec := &out.Flows[i]
		meta, hasMeta := out.Meta[rec.Client]
		country := meta.Country
		if rec.Client == prefixOnly {
			country = "CD"
		}
		v := rec.BytesUp + rec.BytesDown
		volume[country] += v
		if hasMeta && rec.Domain != "" && rec.GroundRTT.Samples > 0 {
			withResolver++
		}
		key := CustomerDay{Client: rec.Client, Day: DayOf(rec.Start)}
		agg, ok := days[key]
		if !ok {
			agg = &PerCustomerDay{Country: country, Services: map[string]bool{}, CategoryBytes: map[services.Category]int64{}}
			days[key] = agg
		}
		agg.Flows++
		agg.BytesDown += rec.BytesDown
		agg.BytesUp += rec.BytesUp
		if svc, ok := services.Classify(rec.Domain); ok && rec.Domain != "" {
			agg.Services[svc.Name] = true
			agg.CategoryBytes[svc.Category] += v
		}
	}
	for country, want := range volume {
		if got := ds.Volume[country][tstat.ProtoHTTPS]; got != want {
			t.Errorf("volume of %q: %d, want %d", country, got, want)
		}
	}
	if !reflect.DeepEqual(ds.CustomerDays, days) {
		t.Error("customer-days differ from the classifier's answer for each flow")
	}
	n := 0
	for _, xs := range ds.GroundRTTByDomainResolver {
		n += len(xs)
	}
	if n != withResolver {
		t.Errorf("%d ground-RTT samples by domain and resolver, want %d from the flows with metadata", n, withResolver)
	}

	out.Flows = nil
	if ds := NewDataset(out, 1); len(ds.Flows) != 0 || len(ds.CustomerDays) != 0 || len(ds.DNS) != 2 {
		t.Errorf("no flows: %d flows, %d customer-days, %d DNS", len(ds.Flows), len(ds.CustomerDays), len(ds.DNS))
	}
}

func TestEnrichment(t *testing.T) {
	ds := handDataset()
	if len(ds.Flows) != 3 {
		t.Fatalf("%d flows", len(ds.Flows))
	}
	cd := ds.CustomerDays[CustomerDay{Client: cdClient}]
	if cd == nil || cd.Country != "CD" {
		t.Fatalf("metadata join failed: %+v", cd)
	}
	if got := ds.SatRTTByBeam[1]; len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("beam join: beam 1 samples %v", got)
	}
	if !cd.Services["Whatsapp"] || cd.CategoryBytes[services.CategoryChat] != 1000+5<<20 {
		t.Fatalf("service classification: %v, %v", cd.Services, cd.CategoryBytes)
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
	night, peak := ds.SatRTTNight, ds.SatRTTPeak
	if len(night["CD"]) != 1 || night["CD"][0] != 0.6 {
		t.Fatalf("CD night samples %v", night["CD"])
	}
	if len(peak["CD"]) != 1 || peak["CD"][0] != 1.5 {
		t.Fatalf("CD peak samples %v", peak["CD"])
	}
	if len(peak["ES"]) != 1 {
		t.Fatalf("ES peak samples %v", peak["ES"])
	}
	if got := ds.SatRTT["CD"]; len(got) != 2 || got[0] != 1.5 || got[1] != 0.6 {
		t.Fatalf("CD samples %v, want both windows' in record order", got)
	}
}

func TestSatRTTByBeam(t *testing.T) {
	ds := handDataset()
	byBeam := ds.SatRTTByBeam
	if len(byBeam[1]) != 1 {
		t.Fatalf("beam 1 samples %v", byBeam[1])
	}
}

func TestGroupByCustomerDay(t *testing.T) {
	ds := handDataset()
	aggs := ds.CustomerDays
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
	byCP := ds.Volume
	if byCP["CD"][tstat.ProtoHTTPS] <= byCP["ES"][tstat.ProtoHTTPS] {
		t.Fatal("per-country volumes wrong")
	}
	if got, want := byCP["CD"][tstat.ProtoHTTPS]+byCP["ES"][tstat.ProtoHTTPS], int64(3*1000+(5+1+2)<<20); got != want {
		t.Fatalf("HTTPS volume %d, want %d", got, want)
	}
	hourly := ds.HourlyVolume
	if hourly["CD"][13] == 0 || hourly["CD"][2] == 0 {
		t.Fatal("hourly rollup lost volume")
	}
	if hourly["ES"][18] == 0 {
		t.Fatal("Spain evening volume missing")
	}
}

func TestGroundRTTSamplesWeighting(t *testing.T) {
	ds := handDataset()
	// One sample per whole 256 KiB of volume: the 5 MiB flow counts 20
	// times, the 1 MiB one 4 times.
	if got := len(ds.GroundRTT["CD"]); got != 20+4 {
		t.Fatalf("CD weighted samples %d, want 24", got)
	}
}

func TestThroughputSamples(t *testing.T) {
	out := handOutput()
	// Two more bulk flows: one whose client only the prefix map knows,
	// one whose client nothing knows.
	for _, client := range []string{"77.20.0.9", "9.9.9.9"} {
		rec := out.Flows[2]
		rec.Client = netip.MustParseAddr(client)
		out.Flows = append(out.Flows, rec)
	}
	ds := NewDataset(out, 1)
	_, peak, all := ds.ThroughputSamples(1 << 20)
	if len(all["CD"]) != 2 || len(all["ES"]) != 2 || len(all) != 2 {
		t.Fatalf("bulk flows: CD=%d ES=%d, %d countries", len(all["CD"]), len(all["ES"]), len(all))
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
	usage := ds.ResolverUsage
	if usage["CD"][dnssim.ResolverGoogle] != 1 {
		t.Fatalf("CD usage %v", usage["CD"])
	}
	if usage["ES"][dnssim.ResolverOperator] != 1 {
		t.Fatalf("ES usage %v", usage["ES"])
	}
	times := ds.ResolverResponseTimes
	if len(times[dnssim.ResolverGoogle]) != 1 || times[dnssim.ResolverGoogle][0] != 0.022 {
		t.Fatalf("google times %v", times[dnssim.ResolverGoogle])
	}
}

func TestGroundRTTByDomainResolver(t *testing.T) {
	ds := handDataset()
	cells := ds.GroundRTTByDomainResolver
	key := DomainResolverKey{Country: "CD", Resolver: dnssim.ResolverGoogle, Domain: "whatsapp.net"}
	if len(cells[key]) != 1 {
		t.Fatalf("cell %v missing: %v", key, cells)
	}
	key2 := DomainResolverKey{Country: "CD", Resolver: dnssim.ResolverGoogle, Domain: "scooper.news"}
	if len(cells[key2]) != 1 {
		t.Fatal("second-level domain aggregation broken")
	}
}

// TestFoldFlowsMatchesReference: the resolved-key folds fill every
// aggregate exactly as foldFlowsReference and foldDNSReference do, on a
// simulated day and on a hand-built log out of start order, with clients
// that have no metadata, clients in no known prefix, empty domains,
// unclassified domains, flows without RTT samples or bytes, flows on a
// second day, and DNS transactions with "Other" resolvers.
func TestFoldFlowsMatchesReference(t *testing.T) {
	sim, err := netsim.Run(netsim.Config{Customers: 20, Days: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	hand := handOutput()
	clients := []netip.Addr{cdClient, esClient,
		netip.MustParseAddr("77.16.0.9"), // no metadata: country through the prefix join
		netip.MustParseAddr("9.9.9.9")}   // in no known prefix
	domains := []string{"e1.whatsapp.net", "", "scooper.news", "www.google.com", "E1.WhatsApp.net.", "rr1.googlevideo.com", "unclassified.example.co.uk"}
	for i := 0; i < 97; i++ {
		rec := hand.Flows[i%3]
		rec.Client, rec.Domain = clients[i%len(clients)], domains[i%len(domains)]
		rec.Proto = tstat.Protocol(i % 8)
		rec.Start = time.Duration(i*7919%(48*60)) * time.Minute     // two days, out of order
		rec.BytesUp, rec.BytesDown = int64(i%3)*500, int64(i%5)<<18 // some flows carry no bytes
		if i%4 == 0 {
			rec.SatRTT = 0
		}
		if i%6 == 0 {
			rec.GroundRTT = tstat.RTTStats{}
		}
		hand.Flows = append(hand.Flows, rec)
	}
	resolvers := []netip.Addr{netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("185.12.64.53"),
		dnssim.OtherAddr(3), dnssim.OtherAddr(40), netip.MustParseAddr("203.0.113.7")}
	for i := 0; i < 61; i++ {
		hand.DNS = append(hand.DNS, tstat.DNSRecord{
			Client: clients[i%len(clients)], Resolver: resolvers[i%len(resolvers)], Query: domains[i%len(domains)],
			T: time.Duration(i*7919%(48*60)) * time.Minute, ResponseTime: time.Duration(1+i%9) * time.Millisecond,
		})
	}
	for name, out := range map[string]*netsim.Output{"20x1 run": sim, "hand-built log": hand} {
		got := NewDataset(out, 2)
		want := &Dataset{Flows: out.Flows, DNS: out.DNS, Meta: out.Meta, Prefixes: out.CountryPrefixes, Days: 2}
		foldFlowsReference(want)
		foldDNSReference(want)
		gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s: Dataset.%s differs from the reference fold", name, gv.Type().Field(i).Name)
			}
		}
	}
}

// foldDNSReference is foldDNS as it was before the walk resolved each
// client and resolver address once: every record scans the resolver
// table and ranges over the prefix map.
func foldDNSReference(ds *Dataset) {
	ds.ResolverUsage = map[geo.CountryCode]map[dnssim.ResolverID]int{}
	ds.ResolverResponseTimes = map[dnssim.ResolverID][]float64{}
	for i := range ds.DNS {
		d := &ds.DNS[i]
		id := dnssim.ByAddr(d.Resolver).ID
		ds.ResolverResponseTimes[id] = append(ds.ResolverResponseTimes[id], d.ResponseTime.Seconds())
		country, ok := netsim.CountryOf(ds.Prefixes, d.Client)
		if !ok {
			continue
		}
		m, ok := ds.ResolverUsage[country]
		if !ok {
			m = map[dnssim.ResolverID]int{}
			ds.ResolverUsage[country] = m
		}
		m[id]++
	}
}

// foldFlowsReference is foldFlows as it was before the walk resolved
// each client and domain once: every flow looks up each of its keys in
// the Dataset's maps. TestFoldFlowsMatchesReference holds foldFlows to it.
func foldFlowsReference(ds *Dataset) {
	ds.CustomerDays = map[CustomerDay]*PerCustomerDay{}
	ds.Volume = map[geo.CountryCode]map[tstat.Protocol]int64{}
	ds.HourlyVolume = map[geo.CountryCode]*[24]int64{}
	ds.SatRTT = map[geo.CountryCode][]float64{}
	ds.SatRTTNight = map[geo.CountryCode][]float64{}
	ds.SatRTTPeak = map[geo.CountryCode][]float64{}
	ds.SatRTTByBeam = map[int][]float64{}
	ds.GroundRTT = map[geo.CountryCode][]float64{}
	ds.GroundRTTByDomainResolver = map[DomainResolverKey][]float64{}
	// A log names a few hundred domains: each is run through the
	// classifier's regular expressions and cut to its second level once.
	classified := map[string]*services.Service{}
	secondLevel := map[string]string{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		meta, hasMeta, country := ds.join(f)
		v := f.BytesUp + f.BytesDown

		key := CustomerDay{Client: f.Client, Day: DayOf(f.Start)}
		agg, ok := ds.CustomerDays[key]
		if !ok {
			agg = &PerCustomerDay{Country: country,
				Services:      map[string]bool{},
				CategoryBytes: map[services.Category]int64{}}
			ds.CustomerDays[key] = agg
		}
		agg.Flows++
		agg.BytesDown += f.BytesDown
		agg.BytesUp += f.BytesUp
		if f.Domain != "" {
			svc, ok := classified[f.Domain]
			if !ok {
				svc, _ = services.Classify(f.Domain)
				classified[f.Domain] = svc
			}
			if svc != nil {
				agg.Services[svc.Name] = true
				agg.CategoryBytes[svc.Category] += v
			}
		}

		byProto, ok := ds.Volume[country]
		if !ok {
			byProto = map[tstat.Protocol]int64{}
			ds.Volume[country] = byProto
		}
		byProto[f.Proto] += v
		hours, ok := ds.HourlyVolume[country]
		if !ok {
			hours = &[24]int64{}
			ds.HourlyVolume[country] = hours
		}
		hours[UTCHour(f.Start)] += v

		if f.SatRTT > 0 {
			rtt := f.SatRTT.Seconds()
			h := LocalHour(f.Start, country)
			if country != "" {
				ds.SatRTT[country] = append(ds.SatRTT[country], rtt)
				switch {
				case IsNight(h):
					ds.SatRTTNight[country] = append(ds.SatRTTNight[country], rtt)
				case IsPeak(h):
					ds.SatRTTPeak[country] = append(ds.SatRTTPeak[country], rtt)
				}
			}
			if hasMeta && IsPeak(h) {
				ds.SatRTTByBeam[meta.Beam] = append(ds.SatRTTByBeam[meta.Beam], rtt)
			}
		}

		if f.GroundRTT.Samples == 0 {
			continue
		}
		ground := f.GroundRTT.Avg.Seconds()
		if country != "" {
			xs := ds.GroundRTT[country]
			for n := min(max(v/(256<<10), 1), 64); n > 0; n-- {
				xs = append(xs, ground)
			}
			ds.GroundRTT[country] = xs
		}
		if hasMeta && f.Domain != "" {
			sld, ok := secondLevel[f.Domain]
			if !ok {
				sld = services.SecondLevel(f.Domain)
				secondLevel[f.Domain] = sld
			}
			key := DomainResolverKey{Country: country, Resolver: meta.Resolver, Domain: sld}
			ds.GroundRTTByDomainResolver[key] = append(ds.GroundRTTByDomainResolver[key], ground)
		}
	}
}
