// Package workload models the subscriber population and its behaviour: who
// the customers are (residential households, idle second homes, business
// sites, African community WiFi access points), which services they use
// each day, how much they move, and when. The distributions are calibrated
// to the paper's published aggregates (Figures 2 and 4-7) and the causal
// mechanisms the paper identifies — community APs multiplexing many
// end-users behind one CPE, idle European CPEs, business VPNs — are
// explicit model features, so the population *generates* the paper's
// shapes rather than replaying them.
package workload

import (
	"satwatch/internal/dist"
	"satwatch/internal/geo"
)

// CustomerType is the subscriber archetype.
type CustomerType uint8

// The four archetypes the paper's analysis surfaces.
const (
	// Residential households.
	Residential CustomerType = iota
	// SecondHome CPEs stay connected but mostly unused (§4: the European
	// customers behind the 50-250 flows/day knee).
	SecondHome
	// Business sites run VPNs and work tooling (§3.2: the German
	// other-TCP share).
	Business
	// CommunityAP is a shared WiFi access point or internet café
	// multiplexing many end-users behind one CPE (§4-§5).
	CommunityAP
)

func (t CustomerType) String() string {
	switch t {
	case Residential:
		return "residential"
	case SecondHome:
		return "second-home"
	case Business:
		return "business"
	case CommunityAP:
		return "community-ap"
	}
	return "unknown"
}

// CountryProfile is the per-country population calibration.
type CountryProfile struct {
	Country geo.Country
	// CustomerShare is the country's fraction of the subscriber base
	// (Figure 2 calibration: Congo ≈20%, Spain ≈16%, ...).
	CustomerShare float64
	// TypeMix weights the archetypes.
	TypeMix map[CustomerType]float64
	// PlanMix weights the sold plans by downlink Mb/s (§6.5: 10/30 in
	// Africa; 30/50/100 popular in Europe).
	PlanMix map[float64]float64
}

var profiles = []CountryProfile{
	{Country: mustCountry("CD"), CustomerShare: 0.20,
		TypeMix: map[CustomerType]float64{Residential: 0.52, SecondHome: 0.03, Business: 0.15, CommunityAP: 0.30},
		PlanMix: map[float64]float64{10: 0.65, 30: 0.35}},
	{Country: mustCountry("NG"), CustomerShare: 0.09,
		TypeMix: map[CustomerType]float64{Residential: 0.55, SecondHome: 0.03, Business: 0.20, CommunityAP: 0.22},
		PlanMix: map[float64]float64{10: 0.55, 30: 0.45}},
	{Country: mustCountry("ZA"), CustomerShare: 0.07,
		TypeMix: map[CustomerType]float64{Residential: 0.62, SecondHome: 0.04, Business: 0.18, CommunityAP: 0.16},
		PlanMix: map[float64]float64{10: 0.45, 30: 0.55}},
	{Country: mustCountry("IE"), CustomerShare: 0.08,
		TypeMix: map[CustomerType]float64{Residential: 0.52, SecondHome: 0.38, Business: 0.10, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.40, 50: 0.40, 100: 0.20}},
	{Country: mustCountry("ES"), CustomerShare: 0.16,
		TypeMix: map[CustomerType]float64{Residential: 0.50, SecondHome: 0.42, Business: 0.08, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.45, 50: 0.35, 100: 0.20}},
	{Country: mustCountry("GB"), CustomerShare: 0.10,
		TypeMix: map[CustomerType]float64{Residential: 0.55, SecondHome: 0.33, Business: 0.12, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.40, 50: 0.35, 100: 0.25}},
	{Country: mustCountry("DE"), CustomerShare: 0.06,
		TypeMix: map[CustomerType]float64{Residential: 0.40, SecondHome: 0.25, Business: 0.35, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.40, 50: 0.35, 100: 0.25}},
	{Country: mustCountry("FR"), CustomerShare: 0.07,
		TypeMix: map[CustomerType]float64{Residential: 0.50, SecondHome: 0.38, Business: 0.12, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.45, 50: 0.35, 100: 0.20}},
	{Country: mustCountry("IT"), CustomerShare: 0.05,
		TypeMix: map[CustomerType]float64{Residential: 0.52, SecondHome: 0.36, Business: 0.12, CommunityAP: 0},
		PlanMix: map[float64]float64{30: 0.45, 50: 0.35, 100: 0.20}},
	{Country: mustCountry("SN"), CustomerShare: 0.04,
		TypeMix: map[CustomerType]float64{Residential: 0.58, SecondHome: 0.04, Business: 0.18, CommunityAP: 0.20},
		PlanMix: map[float64]float64{10: 0.60, 30: 0.40}},
	{Country: mustCountry("CM"), CustomerShare: 0.05,
		TypeMix: map[CustomerType]float64{Residential: 0.56, SecondHome: 0.04, Business: 0.16, CommunityAP: 0.24},
		PlanMix: map[float64]float64{10: 0.60, 30: 0.40}},
	{Country: mustCountry("GH"), CustomerShare: 0.03,
		TypeMix: map[CustomerType]float64{Residential: 0.58, SecondHome: 0.04, Business: 0.18, CommunityAP: 0.20},
		PlanMix: map[float64]float64{10: 0.60, 30: 0.40}},
}

func mustCountry(code geo.CountryCode) geo.Country {
	c, ok := geo.ByCode(code)
	if !ok {
		panic("workload: unknown country " + string(code))
	}
	return c
}

// Profiles returns the per-country calibration in a stable order.
func Profiles() []CountryProfile {
	out := make([]CountryProfile, len(profiles))
	copy(out, profiles)
	return out
}

// Diurnal profiles in LOCAL time per archetype. Residential leisure peaks
// in the evening (Figure 4's European 18:00-20:00 UTC peak); community APs
// and businesses are day-heavy, which — combined with the African type mix
// — produces the African morning peak and the ≥40% night floor.
var (
	residentialDiurnal = dist.MustDiurnal([24]float64{
		2.0, 1.4, 1.0, 0.9, 0.9, 1.0, 1.5, 2.2, 2.8, 3.2, 3.4, 3.6,
		3.8, 3.6, 3.5, 3.8, 4.2, 5.5, 8.0, 10.0, 9.0, 6.5, 4.5, 3.0})
	communityAPDiurnal = dist.MustDiurnal([24]float64{
		3.8, 3.6, 3.6, 3.6, 3.8, 4.2, 5.5, 7.5, 9.2, 10.0, 9.8, 9.3,
		9.0, 9.2, 9.0, 8.8, 8.5, 8.0, 7.8, 7.2, 6.2, 5.2, 4.5, 4.0})
	businessDiurnal = dist.MustDiurnal([24]float64{
		0.8, 0.7, 0.7, 0.7, 0.8, 1.2, 2.5, 5.0, 8.5, 10.0, 9.8, 9.0,
		8.0, 8.8, 9.2, 8.8, 7.5, 5.5, 3.2, 2.0, 1.5, 1.2, 1.0, 0.9})
	secondHomeDiurnal = dist.MustDiurnal([24]float64{
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 1.5, 2, 2.5, 2.5, 2, 1.5, 1})
)

// DiurnalFor returns the local-time activity profile of an archetype.
func DiurnalFor(t CustomerType) *dist.Diurnal {
	switch t {
	case CommunityAP:
		return communityAPDiurnal
	case Business:
		return businessDiurnal
	case SecondHome:
		return secondHomeDiurnal
	default:
		return residentialDiurnal
	}
}

// penetration is Figure 6: the percentage of customers using each service
// on a given day, columns Congo, Nigeria, South Africa, Ireland, Spain,
// U.K. (the paper's exact heatmap values).
var penetration = map[string]map[geo.CountryCode]float64{
	"Google":     {"CD": 62.96, "NG": 61.26, "ZA": 64.72, "IE": 68.58, "ES": 68.30, "GB": 65.48},
	"Whatsapp":   {"CD": 61.22, "NG": 51.18, "ZA": 62.88, "IE": 59.59, "ES": 63.82, "GB": 53.75},
	"Snapchat":   {"CD": 33.93, "NG": 28.90, "ZA": 19.14, "IE": 38.52, "ES": 12.33, "GB": 28.50},
	"Wechat":     {"CD": 6.42, "NG": 3.55, "ZA": 1.11, "IE": 0.49, "ES": 0.06, "GB": 0.41},
	"Telegram":   {"CD": 1.83, "NG": 3.17, "ZA": 1.28, "IE": 0.53, "ES": 1.75, "GB": 0.29},
	"Instagram":  {"CD": 48.81, "NG": 41.04, "ZA": 40.67, "IE": 48.53, "ES": 45.59, "GB": 40.43},
	"Tiktok":     {"CD": 41.56, "NG": 31.99, "ZA": 36.31, "IE": 40.11, "ES": 31.89, "GB": 36.53},
	"Netflix":    {"CD": 17.34, "NG": 17.84, "ZA": 38.91, "IE": 50.91, "ES": 39.20, "GB": 46.41},
	"Primevideo": {"CD": 3.90, "NG": 3.77, "ZA": 8.42, "IE": 21.30, "ES": 22.78, "GB": 28.21},
	"Sky":        {"CD": 15.71, "NG": 7.86, "ZA": 7.26, "IE": 27.68, "ES": 6.04, "GB": 28.37},
	"Spotify":    {"CD": 37.78, "NG": 30.31, "ZA": 33.19, "IE": 46.79, "ES": 45.20, "GB": 39.73},
	"Dropbox":    {"CD": 11.50, "NG": 9.22, "ZA": 16.57, "IE": 10.39, "ES": 9.34, "GB": 16.81},
	// Services the paper doesn't chart get plausible penetrations so the
	// traffic mix stays realistic.
	"Youtube":   {"CD": 55, "NG": 50, "ZA": 55, "IE": 60, "ES": 60, "GB": 58},
	"Facebook":  {"CD": 50, "NG": 45, "ZA": 45, "IE": 50, "ES": 48, "GB": 45},
	"Office365": {"CD": 8, "NG": 10, "ZA": 14, "IE": 18, "ES": 15, "GB": 20},
}

// PenetrationFor returns the daily-use probability (0..1) of a service in
// a country; unknown countries fall back to a continent average.
func PenetrationFor(service string, country geo.Country) float64 {
	m, ok := penetration[service]
	if !ok {
		return 0
	}
	if v, ok := m[country.Code]; ok {
		return v / 100
	}
	// Fallback: average the same-continent columns.
	var codes []geo.CountryCode
	if country.Continent == geo.Africa {
		codes = []geo.CountryCode{"CD", "NG", "ZA"}
	} else {
		codes = []geo.CountryCode{"IE", "ES", "GB"}
	}
	sum := 0.0
	for _, c := range codes {
		sum += m[c]
	}
	return sum / float64(len(codes)) / 100
}
