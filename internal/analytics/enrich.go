package analytics

import (
	"net/netip"
	"time"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/services"
	"satwatch/internal/tstat"
)

// Dataset is the analysis view of one simulation (or capture) output. It
// aliases that Output — flow records, DNS log, metadata and prefixes — so
// the Output must outlive it and must not be modified while it is in use.
//
// The fields after Days are the report aggregates, each folded once by
// NewDataset in record order, so every sample slice holds its samples in
// log order. Satellite-RTT samples are in seconds and count flows with a
// TLS-derived estimate; the night and peak windows are the customer-local
// ones of IsNight and IsPeak (Figure 8a).
type Dataset struct {
	// Flows is the Output's own flow log, not a copy: each record is
	// joined to its customer's metadata as the fold reaches it.
	Flows []tstat.FlowRecord
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

// NewDataset folds the report aggregates of a simulation output in one
// serial walk over its flows and one over its DNS log.
func NewDataset(out *netsim.Output, days int) *Dataset {
	ds := &Dataset{Flows: out.Flows, DNS: out.DNS, Meta: out.Meta, Prefixes: out.CountryPrefixes, Days: days}
	ds.foldFlows()
	ds.foldDNS()
	return ds
}

// join returns a record's customer metadata (ok false when the operator
// has none) and country: the metadata's, else the anonymized prefix's
// (§3.1).
func (ds *Dataset) join(rec *tstat.FlowRecord) (meta netsim.CustomerMeta, ok bool, country geo.CountryCode) {
	if meta, ok = ds.Meta[rec.Client]; ok {
		return meta, true, meta.Country
	}
	country, _ = netsim.CountryOf(ds.Prefixes, rec.Client)
	return meta, false, country
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

// ThroughputSamples returns download goodput samples in bit/s per country
// for flows carrying at least minBytes, split night/peak (Figure 11).
// Goodput is bytes over first-to-last segment time (§6.5).
func (ds *Dataset) ThroughputSamples(minBytes int64) (night, peak, all map[geo.CountryCode][]float64) {
	night = map[geo.CountryCode][]float64{}
	peak = map[geo.CountryCode][]float64{}
	all = map[geo.CountryCode][]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.BytesDown < minBytes {
			continue
		}
		_, _, country := ds.join(f)
		d := f.Duration().Seconds()
		if country == "" || d <= 0 {
			continue
		}
		bps := float64(f.BytesDown) * 8 / d
		all[country] = append(all[country], bps)
		h := LocalHour(f.Start, country)
		switch {
		case IsNight(h):
			night[country] = append(night[country], bps)
		case IsPeak(h):
			peak[country] = append(peak[country], bps)
		}
	}
	return night, peak, all
}
