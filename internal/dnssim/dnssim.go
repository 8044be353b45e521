// Package dnssim models the DNS ecosystem the probe observes (§6.3-§6.4):
// which resolver each customer uses (most use open resolvers, not the
// operator's), how long resolutions take as seen from the ground station,
// and — crucially — which CDN server a resolution returns, including the
// geolocation-confusion pathology: open resolvers see African customers'
// queries arrive from Italy (or answer from their own homeland view), so
// GeoDNS services hand back servers far from the gateway.
package dnssim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/geo"
	"satwatch/internal/obs"
)

// Exported metrics (see OBSERVABILITY.md).
var (
	mQueries = obs.NewCounter("dnssim_queries_total",
		"Resolutions sampled through the resolver model.", "")
	mCacheMisses = obs.NewCounter("dnssim_cache_misses_total",
		"Resolutions where the resolver missed its cache and recursed to authoritatives.", "")
	mOutageQueries = obs.NewCounter("dnssim_outage_queries_total",
		"DNS queries sent into a resolver outage window (initial tries and retries).", "")
)

// ResolverID names one of the tracked resolvers (the Figure 10 rows).
type ResolverID string

// The Figure 10 resolver population.
const (
	ResolverOperator ResolverID = "Operator-EU"
	ResolverGoogle   ResolverID = "Google"
	ResolverCloudFl  ResolverID = "CloudFlare"
	ResolverNigerian ResolverID = "Nigerian"
	ResolverOpenDNS  ResolverID = "Open DNS"
	ResolverLevel3   ResolverID = "Level3"
	ResolverBaidu    ResolverID = "Baidu"
	Resolver114DNS   ResolverID = "114DNS"
	ResolverOther    ResolverID = "Other"
)

// GeoView is how a resolver localizes the client when answering GeoDNS
// queries (§6.4).
type GeoView uint8

const (
	// ViewGateway resolvers see the query source as the gateway in Italy
	// and return Europe-optimal answers — accidentally ideal here.
	ViewGateway GeoView = iota
	// ViewMixed resolvers (large anycast opens) sometimes localize to the
	// client's true country, sometimes to Italy, sometimes miss entirely.
	ViewMixed
	// ViewHomeland resolvers answer from their own home region's
	// perspective (Chinese resolvers return Asian CDN nodes).
	ViewHomeland
)

// Resolver is one tracked resolver.
type Resolver struct {
	ID   ResolverID
	Addr netip.Addr
	// MedianResponse is the median resolution time observed at the ground
	// station, calibrated to Figure 10's rightmost column.
	MedianResponse time.Duration
	Sigma          float64
	View           GeoView
	// HomeRegion is the region a ViewHomeland resolver answers from.
	HomeRegion cdn.Region
}

var resolvers = []Resolver{
	{ID: ResolverOperator, Addr: netip.MustParseAddr("185.12.64.53"), MedianResponse: 3980 * time.Microsecond, Sigma: 0.45, View: ViewGateway},
	{ID: ResolverGoogle, Addr: netip.MustParseAddr("8.8.8.8"), MedianResponse: 21980 * time.Microsecond, Sigma: 0.40, View: ViewMixed},
	{ID: ResolverCloudFl, Addr: netip.MustParseAddr("1.1.1.1"), MedianResponse: 19970 * time.Microsecond, Sigma: 0.40, View: ViewMixed},
	{ID: ResolverNigerian, Addr: netip.MustParseAddr("197.210.52.53"), MedianResponse: 119980 * time.Microsecond, Sigma: 0.25, View: ViewHomeland, HomeRegion: cdn.RegionAfrica},
	{ID: ResolverOpenDNS, Addr: netip.MustParseAddr("208.67.222.222"), MedianResponse: 17990 * time.Microsecond, Sigma: 0.40, View: ViewMixed},
	{ID: ResolverLevel3, Addr: netip.MustParseAddr("4.2.2.2"), MedianResponse: 23990 * time.Microsecond, Sigma: 0.40, View: ViewGateway},
	{ID: ResolverBaidu, Addr: netip.MustParseAddr("180.76.76.76"), MedianResponse: 355970 * time.Microsecond, Sigma: 0.20, View: ViewHomeland, HomeRegion: cdn.RegionChina},
	{ID: Resolver114DNS, Addr: netip.MustParseAddr("114.114.114.114"), MedianResponse: 109980 * time.Microsecond, Sigma: 0.22, View: ViewHomeland, HomeRegion: cdn.RegionAsia},
	{ID: ResolverOther, Addr: netip.MustParseAddr("192.0.2.53"), MedianResponse: 29970 * time.Microsecond, Sigma: 0.60, View: ViewMixed},
}

var resolverByID = func() map[ResolverID]Resolver {
	m := make(map[ResolverID]Resolver, len(resolvers))
	for _, r := range resolvers {
		m[r.ID] = r
	}
	return m
}()

// Resolvers returns the tracked resolvers in the Figure 10 row order.
func Resolvers() []Resolver {
	out := make([]Resolver, len(resolvers))
	copy(out, resolvers)
	return out
}

// ByID looks a resolver up.
func ByID(id ResolverID) (Resolver, bool) {
	r, ok := resolverByID[id]
	return r, ok
}

// ByAddr recovers the tracked resolver from its address. "Other" resolvers
// use many addresses; OtherAddr generates them and ByAddr maps any
// untracked address back to ResolverOther.
func ByAddr(addr netip.Addr) Resolver {
	for _, r := range resolvers {
		if r.Addr == addr {
			return r
		}
	}
	other := resolverByID[ResolverOther]
	other.Addr = addr
	return other
}

// OtherAddr returns the i-th long-tail resolver address (the paper observes
// 4195 distinct resolvers, most sporadic).
func OtherAddr(i int) netip.Addr {
	h := fnv.New32a()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(i))
	h.Write(b[:])
	v := h.Sum32()
	return netip.AddrFrom4([4]byte{193, byte(8 + v%32), byte(v >> 8), 1 + byte(v>>16)%250})
}

// adoption is Figure 10's adoption matrix: percentage of DNS traffic per
// resolver, per country (columns Congo, Nigeria, South Africa, Ireland,
// Spain, U.K.).
var adoption = map[geo.CountryCode]map[ResolverID]float64{
	"CD": {ResolverOperator: 0.87, ResolverGoogle: 85.68, ResolverCloudFl: 3.02, ResolverNigerian: 0.00, ResolverOpenDNS: 1.22, ResolverLevel3: 0.45, ResolverBaidu: 0.68, Resolver114DNS: 2.97, ResolverOther: 5.11},
	"NG": {ResolverOperator: 9.10, ResolverGoogle: 50.69, ResolverCloudFl: 2.54, ResolverNigerian: 11.84, ResolverOpenDNS: 4.00, ResolverLevel3: 7.63, ResolverBaidu: 0.32, Resolver114DNS: 3.43, ResolverOther: 10.46},
	"ZA": {ResolverOperator: 1.87, ResolverGoogle: 63.47, ResolverCloudFl: 10.36, ResolverNigerian: 6.32, ResolverOpenDNS: 0.65, ResolverLevel3: 0.09, ResolverBaidu: 0.22, Resolver114DNS: 1.64, ResolverOther: 15.38},
	"IE": {ResolverOperator: 43.75, ResolverGoogle: 38.49, ResolverCloudFl: 2.03, ResolverNigerian: 0.00, ResolverOpenDNS: 0.49, ResolverLevel3: 0.00, ResolverBaidu: 0.12, Resolver114DNS: 0.05, ResolverOther: 15.07},
	"ES": {ResolverOperator: 28.95, ResolverGoogle: 61.27, ResolverCloudFl: 2.05, ResolverNigerian: 0.00, ResolverOpenDNS: 0.72, ResolverLevel3: 0.00, ResolverBaidu: 0.11, Resolver114DNS: 0.03, ResolverOther: 6.87},
	"GB": {ResolverOperator: 38.10, ResolverGoogle: 34.67, ResolverCloudFl: 6.04, ResolverNigerian: 0.00, ResolverOpenDNS: 6.97, ResolverLevel3: 0.49, ResolverBaidu: 0.05, Resolver114DNS: 0.01, ResolverOther: 13.67},
}

// defaults for countries outside the Figure 10 columns.
var adoptionDefaultEU = map[ResolverID]float64{
	ResolverOperator: 33, ResolverGoogle: 45, ResolverCloudFl: 4,
	ResolverOpenDNS: 2, ResolverLevel3: 0.5, ResolverBaidu: 0.1, Resolver114DNS: 0.05, ResolverOther: 15,
}
var adoptionDefaultAF = map[ResolverID]float64{
	ResolverOperator: 4, ResolverGoogle: 65, ResolverCloudFl: 5,
	ResolverOpenDNS: 2, ResolverLevel3: 1, ResolverBaidu: 0.5, Resolver114DNS: 2.5, ResolverOther: 20,
}

// AdoptionFor returns a weighted chooser over resolvers for a country.
func AdoptionFor(country geo.Country) (*dist.Weighted[ResolverID], error) {
	m, ok := adoption[country.Code]
	if !ok {
		if country.Continent == geo.Africa {
			m = adoptionDefaultAF
		} else {
			m = adoptionDefaultEU
		}
	}
	ids := make([]ResolverID, 0, len(resolvers))
	weights := make([]float64, 0, len(resolvers))
	for _, r := range resolvers {
		ids = append(ids, r.ID)
		weights = append(weights, m[r.ID])
	}
	w, err := dist.NewWeighted(ids, weights)
	if err != nil {
		return nil, fmt.Errorf("dnssim: adoption for %s: %w", country.Code, err)
	}
	return w, nil
}

// RetryBackoff is the stub-resolver retry schedule the simulator uses
// when a resolver outage (internal/faults) swallows a query: retry
// after 1 s, again 3 s later, then give up — a compressed version of
// the common client timeout ladder.
var RetryBackoff = []time.Duration{time.Second, 3 * time.Second}

// CountOutageQueries feeds dnssim_outage_queries_total from the
// simulator's fault path: n queries (initial tries plus retries) were
// sent into a resolver outage window.
func CountOutageQueries(n int) {
	if n > 0 {
		mOutageQueries.Add(int64(n))
	}
}

// SampleResponseTime draws the resolution time observed at the ground
// station: the round trip to the resolver plus an occasional recursion
// penalty when the resolver misses its cache.
func (res Resolver) SampleResponseTime(r *dist.Rand) time.Duration {
	mQueries.Inc()
	base := dist.LogNormalFromMedian(float64(res.MedianResponse), res.Sigma).Sample(r)
	if r.Bool(0.12) {
		// Cache miss: the resolver recurses to authoritatives.
		mCacheMisses.Inc()
		base += r.Exponential(float64(80 * time.Millisecond))
	}
	return time.Duration(base)
}

// SelectRegion decides which hosting region serves a flow, given the
// catalog entry, the resolver used, and the client's country. This is the
// §6.4 server-selection policy with its pathologies.
func SelectRegion(e cdn.Entry, res Resolver, client geo.Country, r *dist.Rand) cdn.Region {
	switch e.Kind {
	case cdn.HostAnycast, cdn.HostSingle:
		// Anycast ignores DNS; single origins have nowhere else to go.
		return e.Home
	}
	// GeoDNS: the resolver's client-location guess picks the node.
	switch res.View {
	case ViewGateway:
		// Sees Italy → returns the Europe-optimal node.
		return e.Home
	case ViewHomeland:
		// Answers anchored to the resolver's homeland CDN footprint.
		if r.Bool(0.85) {
			return res.HomeRegion
		}
		return e.Home
	default: // ViewMixed
		if client.Continent == geo.Africa {
			// ECS sometimes reveals the true (African) client network,
			// sometimes the query exits near Italy; the result is a mix
			// of farther European nodes, the optimal node, and
			// occasionally a node back in Africa (Table 2's inflated
			// Google-DNS answers for Nigeria).
			switch {
			case r.Bool(0.15):
				return cdn.RegionAfrica
			case r.Bool(0.55):
				return cdn.RegionEurope
			default:
				return e.Home
			}
		}
		// European clients: mostly optimal, occasionally a farther
		// European node.
		if r.Bool(0.2) {
			return cdn.RegionEurope
		}
		return e.Home
	}
}
