package workload

import (
	"fmt"
	"net/netip"

	"satwatch/internal/dist"
	"satwatch/internal/dnssim"
	"satwatch/internal/geo"
	"satwatch/internal/shaper"
)

// Customer is one subscription (one CPE, §2.1 footnote: an individual, a
// household, an office, or a community WiFi solution).
type Customer struct {
	ID      int
	Country geo.Country
	Type    CustomerType
	Plan    shaper.Plan
	// Beam is the id of the spot beam serving this customer.
	Beam int
	// Addr is the CPE's private IPv4 address; the per-country /16 makes
	// the anonymized-prefix → country enrichment work (§2.3/§3.1).
	Addr netip.Addr
	// Multiplex is how many end-users share the CPE (1 for residential).
	Multiplex int
	// Resolver is the DNS resolver this customer's devices use.
	Resolver dnssim.Resolver
	// ChineseCommunity marks customers gravitating to Chinese services
	// and homeland resolvers (§5-§6.3).
	ChineseCommunity bool
}

// countrySubnets assigns each country a /16 inside 10.0.0.0/8, indexed by
// the profile order.
func countrySubnet(idx int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(16 + idx), 0, 0}), 16)
}

// SubnetFor returns the CPE address block of a country.
func SubnetFor(code geo.CountryCode) (netip.Prefix, bool) {
	for i, p := range profiles {
		if p.Country.Code == code {
			return countrySubnet(i), true
		}
	}
	return netip.Prefix{}, false
}

// addrFor places customer j of country idx inside its /16.
func addrFor(countryIdx, j int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(16 + countryIdx), byte(j / 250), byte(2 + j%250)})
}

// planFor samples a plan from the country's mix.
func planFor(p CountryProfile, r *dist.Rand) shaper.Plan {
	var plans []shaper.Plan
	var weights []float64
	for _, pl := range shaper.Plans() {
		if w, ok := p.PlanMix[pl.DownMbps]; ok && w > 0 {
			plans = append(plans, pl)
			weights = append(weights, w)
		}
	}
	w := dist.MustWeighted(plans, weights)
	return w.Sample(r)
}

// typeFor samples an archetype from the country's mix.
func typeFor(p CountryProfile, r *dist.Rand) CustomerType {
	types := []CustomerType{Residential, SecondHome, Business, CommunityAP}
	weights := make([]float64, len(types))
	for i, t := range types {
		weights[i] = p.TypeMix[t]
	}
	return dist.MustWeighted(types, weights).Sample(r)
}

// BuildPopulation creates n customers distributed per the country shares,
// deterministically from r.
func BuildPopulation(n int, r *dist.Rand) ([]*Customer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: population size %d", n)
	}
	var out []*Customer
	id := 0
	for idx, p := range profiles {
		count := int(float64(n)*p.CustomerShare + 0.5)
		if count == 0 {
			count = 1
		}
		beams := geo.BeamsFor(p.Country.Code)
		if len(beams) == 0 {
			return nil, fmt.Errorf("workload: no beams for %s", p.Country.Code)
		}
		adoption, err := dnssim.AdoptionFor(p.Country)
		if err != nil {
			return nil, err
		}
		cr := r.Fork("population/" + string(p.Country.Code))
		for j := 0; j < count; j++ {
			c := &Customer{
				ID:      id,
				Country: p.Country,
				Type:    typeFor(p, cr),
				Plan:    planFor(p, cr),
				Beam:    beams[j%len(beams)].ID,
				Addr:    addrFor(idx, j),
			}
			if c.Type == CommunityAP {
				// Internet cafés and community hotspots: 6-60 users.
				c.Multiplex = 6 + cr.IntN(35)
			} else {
				c.Multiplex = 1
			}
			rid := adoption.Sample(cr)
			res, _ := dnssim.ByID(rid)
			if rid == dnssim.ResolverOther {
				res.Addr = dnssim.OtherAddr(cr.IntN(4000))
			}
			c.Resolver = res
			// Homeland-resolver users are the Chinese-community signal;
			// a small extra share uses Chinese services via open
			// resolvers too.
			c.ChineseCommunity = rid == dnssim.ResolverBaidu || rid == dnssim.Resolver114DNS ||
				(p.Country.Continent == geo.Africa && cr.Bool(0.01))
			out = append(out, c)
			id++
		}
	}
	return out, nil
}

// IsActiveDay reports whether the customer produces real traffic on the
// given day. Second homes are occupied only occasionally — the cause of
// the Figure 5a knee.
func (c *Customer) IsActiveDay(day int, r *dist.Rand) bool {
	if c.Type == SecondHome {
		return r.Bool(0.12)
	}
	return true
}
