package analytics

import (
	"net/netip"
	"runtime"
	"sync"
	"time"

	"satwatch/internal/cdn"
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
type Dataset struct {
	Flows []Flow
	DNS   []tstat.DNSRecord
	Meta  map[netip.Addr]netsim.CustomerMeta
	// Prefixes maps anonymized customer prefixes to countries, for
	// records whose exact customer is unknown.
	Prefixes map[netip.Prefix]geo.CountryCode
	Days     int
}

// NewDataset enriches a simulation output, on as many goroutines as the
// run used (GOMAXPROCS for an output read back from logs). Each takes one
// contiguous chunk of ds.Flows and writes it by index, so the result does
// not depend on their number.
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

// GroupByCustomerDay builds the per-customer-day aggregates.
func (ds *Dataset) GroupByCustomerDay() map[CustomerDay]*PerCustomerDay {
	out := map[CustomerDay]*PerCustomerDay{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		key := CustomerDay{Client: f.Client, Day: DayOf(f.Start)}
		agg, ok := out[key]
		if !ok {
			agg = &PerCustomerDay{Country: f.Country,
				Services:      map[string]bool{},
				CategoryBytes: map[services.Category]int64{}}
			out[key] = agg
		}
		agg.Flows++
		agg.BytesDown += f.BytesDown
		agg.BytesUp += f.BytesUp
		if f.Service != "" {
			agg.Services[f.Service] = true
			agg.CategoryBytes[f.Category] += f.BytesDown + f.BytesUp
		}
	}
	return out
}

// VolumeByProtocol returns total (up+down) bytes per protocol class
// (Table 1).
func (ds *Dataset) VolumeByProtocol() map[tstat.Protocol]int64 {
	out := map[tstat.Protocol]int64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		out[f.Proto] += f.BytesUp + f.BytesDown
	}
	return out
}

// VolumeByCountryProtocol returns bytes per (country, protocol), Figure 3.
func (ds *Dataset) VolumeByCountryProtocol() map[geo.CountryCode]map[tstat.Protocol]int64 {
	out := map[geo.CountryCode]map[tstat.Protocol]int64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		m, ok := out[f.Country]
		if !ok {
			m = map[tstat.Protocol]int64{}
			out[f.Country] = m
		}
		m[f.Proto] += f.BytesUp + f.BytesDown
	}
	return out
}

// CustomersByCountry counts distinct customers per country (from metadata).
func (ds *Dataset) CustomersByCountry() map[geo.CountryCode]int {
	out := map[geo.CountryCode]int{}
	for _, meta := range ds.Meta {
		out[meta.Country]++
	}
	return out
}

// HourlyVolume returns, per country, the total bytes per UTC hour-of-day
// averaged over the observation days (Figure 4).
func (ds *Dataset) HourlyVolume() map[geo.CountryCode][24]float64 {
	acc := map[geo.CountryCode]*[24]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		a, ok := acc[f.Country]
		if !ok {
			a = &[24]float64{}
			acc[f.Country] = a
		}
		a[UTCHour(f.Start)] += float64(f.BytesUp + f.BytesDown)
	}
	out := map[geo.CountryCode][24]float64{}
	for code, a := range acc {
		out[code] = *a
	}
	return out
}

// SatRTTSamples returns satellite-RTT samples (seconds) per country, split
// into night and peak windows by customer-local start hour (Figure 8a).
func (ds *Dataset) SatRTTSamples() (night, peak map[geo.CountryCode][]float64) {
	night = map[geo.CountryCode][]float64{}
	peak = map[geo.CountryCode][]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.SatRTT <= 0 || f.Country == "" {
			continue
		}
		h := LocalHour(f.Start, f.Country)
		v := f.SatRTT.Seconds()
		switch {
		case IsNight(h):
			night[f.Country] = append(night[f.Country], v)
		case IsPeak(h):
			peak[f.Country] = append(peak[f.Country], v)
		}
	}
	return night, peak
}

// SatRTTByBeam returns peak-window satellite-RTT samples per beam
// (Figure 8b), for flows with metadata.
func (ds *Dataset) SatRTTByBeam() map[int][]float64 {
	out := map[int][]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.SatRTT <= 0 || !f.HasMeta {
			continue
		}
		if !IsPeak(LocalHour(f.Start, f.Country)) {
			continue
		}
		out[f.Meta.Beam] = append(out[f.Meta.Beam], f.SatRTT.Seconds())
	}
	return out
}

// GroundRTTSamples returns per-country ground-RTT samples in seconds,
// volume-weighted per flow (Figure 9 reads "share of traffic" on the y
// axis; weighting by flow bytes approximates it).
func (ds *Dataset) GroundRTTSamples(volumeWeighted bool) map[geo.CountryCode][]float64 {
	out := map[geo.CountryCode][]float64{}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.GroundRTT.Samples == 0 || f.Country == "" {
			continue
		}
		v := f.GroundRTT.Avg.Seconds()
		n := 1
		if volumeWeighted {
			// One sample per 256 KiB of flow volume, capped, keeps big
			// flows from exploding the sample set.
			n = int((f.BytesDown + f.BytesUp) / (256 << 10))
			if n < 1 {
				n = 1
			}
			if n > 64 {
				n = 64
			}
		}
		for j := 0; j < n; j++ {
			out[f.Country] = append(out[f.Country], v)
		}
	}
	return out
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
