package report

import (
	"fmt"
	"sort"
	"strings"

	"satwatch/internal/analytics"
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
)

// resolverOrder is Figure 10's row order.
var resolverOrder = []dnssim.ResolverID{
	dnssim.ResolverOperator, dnssim.ResolverGoogle, dnssim.ResolverCloudFl,
	dnssim.ResolverNigerian, dnssim.ResolverOpenDNS, dnssim.ResolverLevel3,
	dnssim.ResolverBaidu, dnssim.Resolver114DNS, dnssim.ResolverOther,
}

// Fig10 is the DNS resolver adoption and response-time figure.
type Fig10 struct {
	// SharePct[country][resolver] is the percentage of the country's DNS
	// transactions using the resolver.
	SharePct map[geo.CountryCode]map[dnssim.ResolverID]float64
	// MedianResponse[resolver] is the median response time in seconds.
	MedianResponse map[dnssim.ResolverID]float64
}

// BuildFig10 computes resolver adoption and latency.
func BuildFig10(ds *analytics.Dataset) Fig10 {
	out := Fig10{
		SharePct:       map[geo.CountryCode]map[dnssim.ResolverID]float64{},
		MedianResponse: map[dnssim.ResolverID]float64{},
	}
	for code, m := range ds.ResolverUsage {
		total := 0
		for _, n := range m {
			total += n
		}
		if total == 0 {
			continue
		}
		shares := map[dnssim.ResolverID]float64{}
		for id, n := range m {
			shares[id] = 100 * float64(n) / float64(total)
		}
		out.SharePct[code] = shares
	}
	for id, xs := range ds.ResolverResponseTimes {
		out.MedianResponse[id] = analytics.NewSample(xs).Median()
	}
	return out
}

// Render prints the adoption matrix plus the response-time column.
func (f Fig10) Render() string {
	header := []string{"Resolver"}
	for _, code := range top6 {
		header = append(header, countryName(code))
	}
	header = append(header, "Median resp")
	tab := &table{header: header}
	for _, id := range resolverOrder {
		cells := []string{string(id)}
		for _, code := range top6 {
			cells = append(cells, fmtPct(f.SharePct[code][id]))
		}
		if med, ok := f.MedianResponse[id]; ok {
			cells = append(cells, fmtMs(med))
		} else {
			cells = append(cells, "-")
		}
		tab.add(cells...)
	}
	return "Figure 10: adoption and median response time of DNS resolvers\n" + tab.String()
}

// ResolverImpact is the Table 2 / Tables 4-5 family: average ground RTT per
// (country, resolver, second-level domain).
type ResolverImpact struct {
	Countries []geo.CountryCode
	// AvgRTT[key] is the mean ground RTT in seconds; Count the flows.
	AvgRTT map[analytics.DomainResolverKey]float64
	Count  map[analytics.DomainResolverKey]int
}

// BuildResolverImpact aggregates for the given countries (Table 2 uses
// U.K. and Nigeria; Tables 4-5 add Congo and South Africa).
func BuildResolverImpact(ds *analytics.Dataset, countries ...geo.CountryCode) ResolverImpact {
	wanted := map[geo.CountryCode]bool{}
	for _, c := range countries {
		wanted[c] = true
	}
	out := ResolverImpact{Countries: countries,
		AvgRTT: map[analytics.DomainResolverKey]float64{},
		Count:  map[analytics.DomainResolverKey]int{}}
	for key, xs := range ds.GroundRTTByDomainResolver {
		if !wanted[key.Country] {
			continue
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		out.AvgRTT[key] = sum / float64(len(xs))
		out.Count[key] = len(xs)
	}
	return out
}

// Cell returns the average ground RTT in seconds for one cell, ok=false
// when the combination was never observed.
func (t ResolverImpact) Cell(country geo.CountryCode, resolver dnssim.ResolverID, sld string) (float64, bool) {
	v, ok := t.AvgRTT[analytics.DomainResolverKey{Country: country, Resolver: resolver, Domain: sld}]
	return v, ok
}

// Domains returns all second-level domains present, sorted.
func (t ResolverImpact) Domains() []string {
	seen := map[string]bool{}
	for key := range t.AvgRTT {
		seen[key.Domain] = true
	}
	var out []string
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Render prints one block per country with domains × resolvers.
func (t ResolverImpact) Render() string {
	var sb strings.Builder
	sb.WriteString("Ground-segment RTT per (domain, resolver) — Tables 2/4/5 family\n")
	domains := t.Domains()
	for _, country := range t.Countries {
		fmt.Fprintf(&sb, "\n%s:\n", countryName(country))
		header := []string{"domain"}
		for _, id := range resolverOrder {
			header = append(header, string(id))
		}
		tab := &table{header: header}
		for _, d := range domains {
			cells := []string{d}
			any := false
			for _, id := range resolverOrder {
				if v, ok := t.Cell(country, id, d); ok {
					cells = append(cells, fmtMs(v))
					any = true
				} else {
					cells = append(cells, "-")
				}
			}
			if any {
				tab.add(cells...)
			}
		}
		sb.WriteString(tab.String())
	}
	return sb.String()
}
