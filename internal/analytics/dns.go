package analytics

import (
	"net/netip"

	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
)

// foldDNS fills the DNS aggregates of the Dataset in one walk over the
// DNS log, in log order. Each distinct resolver address is resolved to
// its resolver once, and each distinct client once to its country's
// usage row: the prefix join only, as DNS reads no metadata.
func (ds *Dataset) foldDNS() {
	ds.ResolverUsage = map[geo.CountryCode]map[dnssim.ResolverID]int{}
	ds.ResolverResponseTimes = map[dnssim.ResolverID][]float64{}
	resolvers := map[netip.Addr]dnssim.ResolverID{}
	// usage maps a client to its country's row; nil for a client in no
	// known prefix.
	usage := map[netip.Addr]map[dnssim.ResolverID]int{}
	for i := range ds.DNS {
		d := &ds.DNS[i]
		id, ok := resolvers[d.Resolver]
		if !ok {
			id = dnssim.ByAddr(d.Resolver).ID
			resolvers[d.Resolver] = id
		}
		ds.ResolverResponseTimes[id] = append(ds.ResolverResponseTimes[id], d.ResponseTime.Seconds())
		row, ok := usage[d.Client]
		if !ok {
			if country, known := netsim.CountryOf(ds.Prefixes, d.Client); known {
				if row = ds.ResolverUsage[country]; row == nil {
					row = map[dnssim.ResolverID]int{}
					ds.ResolverUsage[country] = row
				}
			}
			usage[d.Client] = row
		}
		if row != nil {
			row[id]++
		}
	}
}

// DomainResolverKey keys the Table 2/4/5 ground-RTT aggregates.
type DomainResolverKey struct {
	Country  geo.CountryCode
	Resolver dnssim.ResolverID
	Domain   string // second-level domain
}

// ServiceUsersByCountry counts, per (service, country), the number of
// customer-days on which the service was used, plus the total active
// customer-days per country — the Figure 6 numerator and denominator.
func (ds *Dataset) ServiceUsersByCountry() (use map[string]map[geo.CountryCode]int, activeDays map[geo.CountryCode]int) {
	use = map[string]map[geo.CountryCode]int{}
	activeDays = map[geo.CountryCode]int{}
	for _, agg := range ds.CustomerDays {
		if agg.Flows < ActiveFlowThreshold {
			// Require a minimum of activity before counting the day;
			// idle CPE telemetry days would dilute penetration.
			continue
		}
		activeDays[agg.Country]++
		for svc := range agg.Services {
			m, ok := use[svc]
			if !ok {
				m = map[geo.CountryCode]int{}
				use[svc] = m
			}
			m[agg.Country]++
		}
	}
	return use, activeDays
}
