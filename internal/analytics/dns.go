package analytics

import (
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/netsim"
	"satwatch/internal/services"
)

// ResolverUsage aggregates DNS transactions per (country, resolver):
// Figure 10's left matrix.
func (ds *Dataset) ResolverUsage() map[geo.CountryCode]map[dnssim.ResolverID]int {
	out := map[geo.CountryCode]map[dnssim.ResolverID]int{}
	for _, d := range ds.DNS {
		country, ok := netsim.CountryOf(ds.Prefixes, d.Client)
		if !ok {
			continue
		}
		m, ok := out[country]
		if !ok {
			m = map[dnssim.ResolverID]int{}
			out[country] = m
		}
		m[dnssim.ByAddr(d.Resolver).ID]++
	}
	return out
}

// ResolverResponseTimes collects response-time samples in seconds per
// resolver: Figure 10's rightmost column.
func (ds *Dataset) ResolverResponseTimes() map[dnssim.ResolverID][]float64 {
	out := map[dnssim.ResolverID][]float64{}
	for _, d := range ds.DNS {
		id := dnssim.ByAddr(d.Resolver).ID
		out[id] = append(out[id], d.ResponseTime.Seconds())
	}
	return out
}

// DomainResolverKey keys the Table 2/4/5 ground-RTT aggregates.
type DomainResolverKey struct {
	Country  geo.CountryCode
	Resolver dnssim.ResolverID
	Domain   string // second-level domain
}

// GroundRTTByDomainResolver aggregates per-flow average ground RTTs
// (seconds) by (customer country, customer resolver, second-level server
// domain) — the paper's Tables 2, 4 and 5. The resolver comes from the
// operator metadata join, as each customer's devices stick to one
// configured resolver.
func (ds *Dataset) GroundRTTByDomainResolver() map[DomainResolverKey][]float64 {
	out := map[DomainResolverKey][]float64{}
	secondLevel := map[string]string{} // per distinct domain, not per flow
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if !f.HasMeta || f.Domain == "" || f.GroundRTT.Samples == 0 {
			continue
		}
		sld, ok := secondLevel[f.Domain]
		if !ok {
			sld = services.SecondLevel(f.Domain)
			secondLevel[f.Domain] = sld
		}
		key := DomainResolverKey{
			Country:  f.Country,
			Resolver: f.Meta.Resolver,
			Domain:   sld,
		}
		out[key] = append(out[key], f.GroundRTT.Avg.Seconds())
	}
	return out
}

// ServiceUsersByCountry counts, per (service, country), the number of
// customer-days on which the service was used, plus the total active
// customer-days per country — the Figure 6 numerator and denominator.
func (ds *Dataset) ServiceUsersByCountry() (use map[string]map[geo.CountryCode]int, activeDays map[geo.CountryCode]int) {
	use = map[string]map[geo.CountryCode]int{}
	activeDays = map[geo.CountryCode]int{}
	for _, agg := range ds.GroupByCustomerDay() {
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
