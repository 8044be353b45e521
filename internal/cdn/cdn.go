// Package cdn models the internet side of the ground station: where the
// servers of popular services actually sit, and therefore which
// ground-segment RTT a flow experiences once it leaves the gateway in Italy.
//
// The regions reproduce the clusters of the paper's Figure 9: CDN nodes
// with direct peering at ~12 ms, other European hosting at ~15-17 ms and
// ~35 ms, U.S. East/West coast clouds at ~95/180 ms, services hosted back
// in the customer's African country at 300-400 ms (all traffic must hairpin
// through Italy, §6.2), and Chinese services at ~250-350 ms.
package cdn

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"time"

	"satwatch/internal/dist"
)

// Region is a server-hosting location, measured from the ground station.
type Region string

// The hosting regions of Figure 9.
const (
	RegionPeered     Region = "peered-cdn" // direct peering at the gateway
	RegionEuropeNear Region = "europe-near"
	RegionEurope     Region = "europe"
	RegionUSEast     Region = "us-east"
	RegionUSWest     Region = "us-west"
	RegionAfrica     Region = "africa-local"
	RegionAsia       Region = "asia"
	RegionChina      Region = "china"
)

// rttBand is the ground-RTT distribution of a region, as a lognormal around
// the Figure 9 bump with a light tail.
type rttBand struct {
	median time.Duration
	sigma  float64
}

var bands = map[Region]rttBand{
	RegionPeered:     {12 * time.Millisecond, 0.10},
	RegionEuropeNear: {16 * time.Millisecond, 0.12},
	RegionEurope:     {35 * time.Millisecond, 0.15},
	RegionUSEast:     {95 * time.Millisecond, 0.08},
	RegionUSWest:     {180 * time.Millisecond, 0.06},
	RegionAfrica:     {340 * time.Millisecond, 0.12},
	RegionAsia:       {120 * time.Millisecond, 0.14},
	RegionChina:      {260 * time.Millisecond, 0.14},
}

// SampleGroundRTT draws one ground-segment RTT for a server in the region.
func SampleGroundRTT(region Region, r *dist.Rand) time.Duration {
	b, ok := bands[region]
	if !ok {
		b = bands[RegionEurope]
	}
	ln := dist.LogNormalFromMedian(float64(b.median), b.sigma)
	return time.Duration(ln.Sample(r))
}

// regionPrefix gives each region a distinctive address space so analyses
// (and tests) can recover the region from a server address.
var regionPrefix = map[Region]netip.Prefix{
	RegionPeered:     netip.MustParsePrefix("151.101.0.0/16"),
	RegionEuropeNear: netip.MustParsePrefix("185.60.0.0/16"),
	RegionEurope:     netip.MustParsePrefix("34.76.0.0/16"),
	RegionUSEast:     netip.MustParsePrefix("52.20.0.0/16"),
	RegionUSWest:     netip.MustParsePrefix("13.52.0.0/16"),
	RegionAfrica:     netip.MustParsePrefix("102.89.0.0/16"),
	RegionAsia:       netip.MustParsePrefix("47.74.0.0/16"),
	RegionChina:      netip.MustParsePrefix("39.156.0.0/16"),
}

// ServerAddr returns the deterministic address of replica i of a domain in
// a region. The same (domain, region, i) always maps to the same address.
func ServerAddr(domain string, region Region, i int) netip.Addr {
	p, ok := regionPrefix[region]
	if !ok {
		p = regionPrefix[RegionEurope]
	}
	h := fnv.New32a()
	h.Write([]byte(domain))
	var ib [4]byte
	binary.BigEndian.PutUint32(ib[:], uint32(i))
	h.Write(ib[:])
	v := h.Sum32()
	base := p.Addr().As4()
	// Fill the host bits (16 for our /16s) from the hash, avoiding .0/.255.
	base[2] = byte(v >> 8)
	base[3] = byte(v)
	if base[3] == 0 || base[3] == 255 {
		base[3] = 1 + byte(v>>16)%250
	}
	return netip.AddrFrom4(base)
}

// RegionOf recovers the hosting region from a server address, for the
// analytics stage (the probe only sees addresses). ok is false for
// addresses outside any modeled region.
func RegionOf(addr netip.Addr) (Region, bool) {
	for region, p := range regionPrefix {
		if p.Contains(addr) {
			return region, true
		}
	}
	return "", false
}
