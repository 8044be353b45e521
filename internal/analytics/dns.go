package analytics

import (
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
)

// foldDNS fills the DNS aggregates of the Dataset.
func (ds *Dataset) foldDNS() {
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
