package analytics

import (
	"net/netip"
	"runtime"
	"sync"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/services"
	"satwatch/internal/tstat"
)

// Flow is an enriched flow record: the raw probe output joined with the
// operator metadata and the service classification (§3.1). The record is
// the Output's own, not a copy.
type Flow struct {
	*tstat.FlowRecord
	Country  geo.CountryCode
	Meta     netsim.CustomerMeta
	HasMeta  bool
	Service  string // services registry name ("" when untracked)
	Category services.Category
	Region   cdn.Region // hosting region recovered from the server address
}

// Dataset is the enriched view of one simulation (or capture) output. It
// aliases that Output — flow records, DNS log, metadata and prefixes — so
// the Output must outlive it and must not be modified while it is in use.
//
// The fields after Days are the report aggregates, each folded once by
// NewDataset in record order, so every sample slice holds its samples in
// log order. Satellite-RTT samples are in seconds and count flows with a
// TLS-derived estimate; the night and peak windows are the customer-local
// ones of IsNight and IsPeak (Figure 8a).
type Dataset struct {
	Flows []Flow
	DNS   []tstat.DNSRecord
	Meta  map[netip.Addr]netsim.CustomerMeta
	// Prefixes maps anonymized customer prefixes to countries, for
	// records whose exact customer is unknown.
	Prefixes map[netip.Prefix]geo.CountryCode
	Days     int

	// CustomerDays holds the Figure 5-7 per-customer-per-day aggregates.
	CustomerDays map[CustomerDay]*PerCustomerDay
	// Volume is up+down bytes per (country, protocol): Table 1 and
	// Figures 2 and 3. Flows of no known country count under "".
	Volume map[geo.CountryCode]map[tstat.Protocol]int64
	// HourlyVolume is up+down bytes per country and UTC hour of day,
	// summed over the observation days (Figure 4).
	HourlyVolume map[geo.CountryCode]*[24]int64
	// SatRTT holds every satellite-RTT sample per country (the latency
	// signatures); SatRTTNight and SatRTTPeak those of the two windows.
	SatRTT, SatRTTNight, SatRTTPeak map[geo.CountryCode][]float64
	// SatRTTByBeam holds peak-window satellite-RTT samples per beam, for
	// flows with metadata (Figure 8b).
	SatRTTByBeam map[int][]float64
	// GroundRTT holds ground-RTT samples in seconds per country,
	// volume-weighted: Figure 9 reads "share of traffic" on its y axis,
	// so a flow counts once per 256 KiB of volume, between 1 and 64 times.
	GroundRTT map[geo.CountryCode][]float64
	// GroundRTTByDomainResolver holds per-flow average ground RTTs in
	// seconds by (customer country, customer resolver, second-level
	// server domain) — the paper's Tables 2, 4 and 5. The resolver comes
	// from the operator metadata join, as each customer's devices stick
	// to one configured resolver.
	GroundRTTByDomainResolver map[DomainResolverKey][]float64
	// ResolverUsage counts DNS transactions per (country, resolver):
	// Figure 10's left matrix.
	ResolverUsage map[geo.CountryCode]map[dnssim.ResolverID]int
	// ResolverResponseTimes holds response times in seconds per
	// resolver: Figure 10's rightmost column.
	ResolverResponseTimes map[dnssim.ResolverID][]float64
}

// NewDataset enriches a simulation output, on as many goroutines as the
// run used (GOMAXPROCS for an output read back from logs). Each takes one
// contiguous chunk of ds.Flows and writes it by index, so the result does
// not depend on their number. It then folds the report aggregates in one
// serial walk over the flows and one over the DNS log.
func NewDataset(out *netsim.Output, days int) *Dataset {
	ds := &Dataset{DNS: out.DNS, Meta: out.Meta, Prefixes: out.CountryPrefixes, Days: days}
	ds.Flows = make([]Flow, len(out.Flows))
	workers := out.Stats.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (len(out.Flows) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(out.Flows); lo += chunk {
		hi := min(lo+chunk, len(out.Flows))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A log names a few hundred domains: each is run through the
			// classifier's regular expressions once per chunk.
			classified := map[string]*services.Service{}
			for i := lo; i < hi; i++ {
				ds.Flows[i] = ds.enrich(&out.Flows[i], classified)
			}
		}()
	}
	wg.Wait()
	ds.foldFlows()
	ds.foldDNS()
	return ds
}

func (ds *Dataset) enrich(rec *tstat.FlowRecord, classified map[string]*services.Service) Flow {
	f := Flow{FlowRecord: rec}
	if meta, ok := ds.Meta[rec.Client]; ok {
		f.Meta = meta
		f.HasMeta = true
		f.Country = meta.Country
	} else {
		f.Country, _ = netsim.CountryOf(ds.Prefixes, rec.Client)
	}
	if rec.Domain != "" {
		svc, ok := classified[rec.Domain]
		if !ok {
			svc, _ = services.Classify(rec.Domain)
			classified[rec.Domain] = svc
		}
		if svc != nil {
			f.Service = svc.Name
			f.Category = svc.Category
		}
	}
	f.Region, _ = cdn.RegionOf(rec.Server)
	return f
}

// LocalHour returns the customer-local hour of a timestamp.
func LocalHour(t time.Duration, country geo.CountryCode) int {
	c, ok := geo.ByCode(country)
	tz := 0
	if ok {
		tz = c.TZOffset
	}
	h := int(t/time.Hour) + tz
	return ((h % 24) + 24) % 24
}

// UTCHour returns the UTC hour-of-day of a timestamp.
func UTCHour(t time.Duration) int { return int(t/time.Hour) % 24 }

// DayOf returns the simulation day index of a timestamp.
func DayOf(t time.Duration) int { return int(t / (24 * time.Hour)) }

// IsNight reports whether the local hour falls in the paper's night window
// (02:00-05:00 local, Figure 8a).
func IsNight(localHour int) bool { return localHour >= 2 && localHour < 5 }

// IsPeak reports whether the local hour falls in the paper's peak window
// (13:00-20:00 local, Figure 8a).
func IsPeak(localHour int) bool { return localHour >= 13 && localHour < 20 }

// CustomerDay keys per-customer-per-day aggregates.
type CustomerDay struct {
	Client netip.Addr
	Day    int
}

// PerCustomerDay aggregates the Figure 5 quantities.
type PerCustomerDay struct {
	Flows     int
	BytesDown int64
	BytesUp   int64
	Country   geo.CountryCode
	// Services seen this customer-day (by service name).
	Services map[string]bool
	// CategoryBytes accumulates down+up volume per category.
	CategoryBytes map[services.Category]int64
}

// ActiveFlowThreshold is the paper's active-customer definition: at least
// 250 flows in a day (§4).
const ActiveFlowThreshold = 250

// foldFlows fills the flow aggregates of the Dataset.
func (ds *Dataset) foldFlows() {
	ds.CustomerDays = map[CustomerDay]*PerCustomerDay{}
	ds.Volume = map[geo.CountryCode]map[tstat.Protocol]int64{}
	ds.HourlyVolume = map[geo.CountryCode]*[24]int64{}
	ds.SatRTT = map[geo.CountryCode][]float64{}
	ds.SatRTTNight = map[geo.CountryCode][]float64{}
	ds.SatRTTPeak = map[geo.CountryCode][]float64{}
	ds.SatRTTByBeam = map[int][]float64{}
	ds.GroundRTT = map[geo.CountryCode][]float64{}
	ds.GroundRTTByDomainResolver = map[DomainResolverKey][]float64{}
	secondLevel := map[string]string{} // per distinct domain, not per flow
	for i := range ds.Flows {
		f := &ds.Flows[i]
		v := f.BytesUp + f.BytesDown

		key := CustomerDay{Client: f.Client, Day: DayOf(f.Start)}
		agg, ok := ds.CustomerDays[key]
		if !ok {
			agg = &PerCustomerDay{Country: f.Country,
				Services:      map[string]bool{},
				CategoryBytes: map[services.Category]int64{}}
			ds.CustomerDays[key] = agg
		}
		agg.Flows++
		agg.BytesDown += f.BytesDown
		agg.BytesUp += f.BytesUp
		if f.Service != "" {
			agg.Services[f.Service] = true
			agg.CategoryBytes[f.Category] += v
		}

		byProto, ok := ds.Volume[f.Country]
		if !ok {
			byProto = map[tstat.Protocol]int64{}
			ds.Volume[f.Country] = byProto
		}
		byProto[f.Proto] += v
		hours, ok := ds.HourlyVolume[f.Country]
		if !ok {
			hours = &[24]int64{}
			ds.HourlyVolume[f.Country] = hours
		}
		hours[UTCHour(f.Start)] += v

		if f.SatRTT > 0 {
			rtt := f.SatRTT.Seconds()
			h := LocalHour(f.Start, f.Country)
			if f.Country != "" {
				ds.SatRTT[f.Country] = append(ds.SatRTT[f.Country], rtt)
				switch {
				case IsNight(h):
					ds.SatRTTNight[f.Country] = append(ds.SatRTTNight[f.Country], rtt)
				case IsPeak(h):
					ds.SatRTTPeak[f.Country] = append(ds.SatRTTPeak[f.Country], rtt)
				}
			}
			if f.HasMeta && IsPeak(h) {
				ds.SatRTTByBeam[f.Meta.Beam] = append(ds.SatRTTByBeam[f.Meta.Beam], rtt)
			}
		}

		if f.GroundRTT.Samples == 0 {
			continue
		}
		ground := f.GroundRTT.Avg.Seconds()
		if f.Country != "" {
			xs := ds.GroundRTT[f.Country]
			for n := min(max(v/(256<<10), 1), 64); n > 0; n-- {
				xs = append(xs, ground)
			}
			ds.GroundRTT[f.Country] = xs
		}
		if f.HasMeta && f.Domain != "" {
			sld, ok := secondLevel[f.Domain]
			if !ok {
				sld = services.SecondLevel(f.Domain)
				secondLevel[f.Domain] = sld
			}
			key := DomainResolverKey{Country: f.Country, Resolver: f.Meta.Resolver, Domain: sld}
			ds.GroundRTTByDomainResolver[key] = append(ds.GroundRTTByDomainResolver[key], ground)
		}
	}
}

// ThroughputSamples returns download goodput samples in bit/s per country
// for flows carrying at least minBytes, split night/peak (Figure 11).
// Goodput is bytes over first-to-last segment time (§6.5).
func (ds *Dataset) ThroughputSamples(minBytes int64) (night, peak, all map[geo.CountryCode][]float64) {
	night = map[geo.CountryCode][]float64{}
	peak = map[geo.CountryCode][]float64{}
	all = map[geo.CountryCode][]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.BytesDown < minBytes || f.Country == "" {
			continue
		}
		d := f.Duration().Seconds()
		if d <= 0 {
			continue
		}
		bps := float64(f.BytesDown) * 8 / d
		all[f.Country] = append(all[f.Country], bps)
		h := LocalHour(f.Start, f.Country)
		switch {
		case IsNight(h):
			night[f.Country] = append(night[f.Country], bps)
		case IsPeak(h):
			peak[f.Country] = append(peak[f.Country], bps)
		}
	}
	return night, peak, all
}
