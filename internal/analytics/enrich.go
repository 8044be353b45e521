package analytics

import (
	"net/netip"
	"slices"
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
	c, _ := geo.ByCode(country)
	return localHour(t, c.TZOffset)
}

// localHour returns the hour of a timestamp tz hours east of UTC.
func localHour(t time.Duration, tz int) int {
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

// foldFlows fills the flow aggregates of the Dataset in one walk over
// the flows, in log order. Each distinct client is resolved once — its
// metadata join, country, time-zone offset and the aggregate slots it
// folds into — and each distinct domain once, to its service and
// second-level domain, so a flow costs one lookup by client and one by
// domain. The slots become the Dataset's maps at the end.
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
	fl := &flowFold{
		ds:        ds,
		services:  services.Services(),
		clients:   map[netip.Addr]*clientSlot{},
		countries: map[geo.CountryCode]*countrySlot{},
		beams:     map[int]*[]float64{},
		cells:     map[countryResolver]*resolverCells{},
		days:      map[CustomerDay]customerDaySlot{},
		domains:   map[string]domainSlot{},
		sldIndex:  map[string]int{},
	}
	for i := range ds.Flows {
		fl.add(&ds.Flows[i])
	}
	fl.finish()
}

// flowFold is the state of one foldFlows walk.
type flowFold struct {
	ds       *Dataset
	services []*services.Service // a domainSlot's svc indexes these

	clients   map[netip.Addr]*clientSlot
	countries map[geo.CountryCode]*countrySlot
	beams     map[int]*[]float64
	cells     map[countryResolver]*resolverCells
	days      map[CustomerDay]customerDaySlot
	domains   map[string]domainSlot
	// slds are the second-level domains seen, numbered in sldIndex.
	slds     []string
	sldIndex map[string]int
}

// clientSlot is one client resolved: its country's slots and, with
// metadata, its beam's samples and its (country, resolver) cells.
type clientSlot struct {
	country *countrySlot
	beam    *[]float64
	cells   *resolverCells
	// day is the day of cd, the customer-day its last flow folded into
	// (none while cd.agg is nil).
	day int
	cd  customerDaySlot
}

// countrySlot holds one country's flow aggregates (the country "" those
// of the flows of no known country).
type countrySlot struct {
	code  geo.CountryCode
	tz    int
	hours *[24]int64 // the Dataset's own HourlyVolume entry
	// volume is indexed by tstat.Protocol; protos marks the protocols
	// seen, each an entry of the country's Volume map.
	volume                   [256]int64
	protos                   [256]bool
	sat, night, peak, ground []float64
}

// customerDaySlot holds a PerCustomerDay and the volume of each service
// used that day, indexed like flowFold.services. Copies share both.
type customerDaySlot struct {
	agg  *PerCustomerDay
	uses []serviceUse
}

type serviceUse struct {
	bytes int64
	seen  bool
}

// domainSlot is one domain resolved: svc indexes flowFold.services (-1
// when no service matches) and sld flowFold.slds (-1 until a flow needs
// it).
type domainSlot struct{ svc, sld int }

type countryResolver struct {
	country  geo.CountryCode
	resolver dnssim.ResolverID
}

// resolverCells holds the ground-RTT samples of one (country, resolver)
// per second-level domain, indexed like flowFold.slds.
type resolverCells struct {
	key   countryResolver
	bySLD [][]float64
}

// add folds one flow.
func (fl *flowFold) add(f *tstat.FlowRecord) {
	c := fl.client(f)
	cs := c.country
	v := f.BytesUp + f.BytesDown

	if day := DayOf(f.Start); c.cd.agg == nil || c.day != day {
		c.day, c.cd = day, fl.customerDay(CustomerDay{Client: f.Client, Day: day}, cs.code)
	}
	agg := c.cd.agg
	agg.Flows++
	agg.BytesDown += f.BytesDown
	agg.BytesUp += f.BytesUp
	var dom domainSlot
	if f.Domain != "" {
		dom = fl.domain(f.Domain)
		if dom.svc >= 0 {
			u := &c.cd.uses[dom.svc]
			u.seen = true
			u.bytes += v
		}
	}

	cs.volume[f.Proto] += v
	cs.protos[f.Proto] = true
	cs.hours[UTCHour(f.Start)] += v

	if f.SatRTT > 0 {
		rtt := f.SatRTT.Seconds()
		h := localHour(f.Start, cs.tz)
		if cs.code != "" {
			cs.sat = append(cs.sat, rtt)
			switch {
			case IsNight(h):
				cs.night = append(cs.night, rtt)
			case IsPeak(h):
				cs.peak = append(cs.peak, rtt)
			}
		}
		if c.beam != nil && IsPeak(h) {
			*c.beam = append(*c.beam, rtt)
		}
	}

	if f.GroundRTT.Samples == 0 {
		return
	}
	ground := f.GroundRTT.Avg.Seconds()
	if cs.code != "" {
		for n := min(max(v/(256<<10), 1), 64); n > 0; n-- {
			cs.ground = append(cs.ground, ground)
		}
	}
	if c.cells != nil && f.Domain != "" {
		if dom.sld < 0 {
			dom.sld = fl.secondLevel(f.Domain)
		}
		cells := c.cells
		if dom.sld >= len(cells.bySLD) {
			cells.bySLD = append(cells.bySLD, make([][]float64, dom.sld+1-len(cells.bySLD))...)
		}
		cells.bySLD[dom.sld] = append(cells.bySLD[dom.sld], ground)
	}
}

// client returns the slot of f's client, resolving it on its first flow.
func (fl *flowFold) client(f *tstat.FlowRecord) *clientSlot {
	if c, ok := fl.clients[f.Client]; ok {
		return c
	}
	meta, hasMeta, country := fl.ds.join(f)
	cs, ok := fl.countries[country]
	if !ok {
		c, _ := geo.ByCode(country)
		cs = &countrySlot{code: country, tz: c.TZOffset, hours: &[24]int64{}}
		fl.ds.HourlyVolume[country] = cs.hours
		fl.countries[country] = cs
	}
	c := &clientSlot{country: cs}
	if hasMeta {
		if c.beam = fl.beams[meta.Beam]; c.beam == nil {
			c.beam = new([]float64)
			fl.beams[meta.Beam] = c.beam
		}
		key := countryResolver{country, meta.Resolver}
		if c.cells = fl.cells[key]; c.cells == nil {
			c.cells = &resolverCells{key: key}
			fl.cells[key] = c.cells
		}
	}
	fl.clients[f.Client] = c
	return c
}

// customerDay returns the slot of a customer-day, creating it and its
// Dataset entry on its first flow.
func (fl *flowFold) customerDay(key CustomerDay, country geo.CountryCode) customerDaySlot {
	if s, ok := fl.days[key]; ok {
		return s
	}
	agg := &PerCustomerDay{Country: country,
		Services:      map[string]bool{},
		CategoryBytes: map[services.Category]int64{}}
	fl.ds.CustomerDays[key] = agg
	s := customerDaySlot{agg: agg, uses: make([]serviceUse, len(fl.services))}
	fl.days[key] = s
	return s
}

// domain returns a domain name's slot, resolving its service on its
// first flow: the classifier's regular expressions run per distinct name.
func (fl *flowFold) domain(name string) domainSlot {
	if d, ok := fl.domains[name]; ok {
		return d
	}
	d := domainSlot{svc: -1, sld: -1}
	if svc, ok := services.Classify(name); ok {
		d.svc = slices.Index(fl.services, svc)
	}
	fl.domains[name] = d
	return d
}

// secondLevel cuts a domain name to its second level once, and numbers
// each second-level domain once.
func (fl *flowFold) secondLevel(name string) int {
	sld := services.SecondLevel(name)
	i, ok := fl.sldIndex[sld]
	if !ok {
		i = len(fl.slds)
		fl.slds = append(fl.slds, sld)
		fl.sldIndex[sld] = i
	}
	d := fl.domains[name]
	d.sld = i
	fl.domains[name] = d
	return i
}

// finish moves the slots' aggregates into the Dataset's maps. A sample
// map gets an entry only for a key with samples, as appending to the map
// in the walk would have made.
func (fl *flowFold) finish() {
	ds := fl.ds
	for code, cs := range fl.countries {
		byProto := map[tstat.Protocol]int64{}
		for p, seen := range cs.protos {
			if seen {
				byProto[tstat.Protocol(p)] = cs.volume[p]
			}
		}
		ds.Volume[code] = byProto
		for _, s := range []struct {
			m  map[geo.CountryCode][]float64
			xs []float64
		}{{ds.SatRTT, cs.sat}, {ds.SatRTTNight, cs.night}, {ds.SatRTTPeak, cs.peak}, {ds.GroundRTT, cs.ground}} {
			if len(s.xs) > 0 {
				s.m[code] = s.xs
			}
		}
	}
	for beam, xs := range fl.beams {
		if len(*xs) > 0 {
			ds.SatRTTByBeam[beam] = *xs
		}
	}
	for _, cells := range fl.cells {
		for sld, xs := range cells.bySLD {
			if len(xs) > 0 {
				key := DomainResolverKey{Country: cells.key.country, Resolver: cells.key.resolver, Domain: fl.slds[sld]}
				ds.GroundRTTByDomainResolver[key] = xs
			}
		}
	}
	for _, s := range fl.days {
		for i, u := range s.uses {
			if u.seen {
				svc := fl.services[i]
				s.agg.Services[svc.Name] = true
				s.agg.CategoryBytes[svc.Category] += u.bytes
			}
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
