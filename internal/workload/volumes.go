package workload

import (
	"math"

	"satwatch/internal/dist"
	"satwatch/internal/geo"
	"satwatch/internal/services"
)

// MB is one megabyte in bytes.
const MB = 1 << 20

// volumeModel calibrates the per-end-user daily volume of a service
// category: the Figure 7 distributions. Medians are bytes per day for a
// single end-user; community APs scale by Multiplex^exponent (concurrent
// users share the day, so scaling is sublinear).
type volumeModel struct {
	medianAfrica float64
	medianEurope float64
	sigma        float64
	// multiplexExp is the AP scaling exponent: interactive categories
	// multiplex almost linearly, streaming hardly (few simultaneous
	// screens on a café AP).
	multiplexExp float64
	// upFraction is the upload share of the category's volume. Chat's
	// high share drives Figure 5c (media sharing from mobile apps, §4).
	upFraction float64
}

var volumeModels = map[services.Category]volumeModel{
	services.CategoryAudio:  {medianAfrica: 2 * MB, medianEurope: 7 * MB, sigma: 1.1, multiplexExp: 0.35, upFraction: 0.015},
	services.CategoryChat:   {medianAfrica: 80 * MB, medianEurope: 6 * MB, sigma: 1.05, multiplexExp: 0.62, upFraction: 0.32},
	services.CategorySearch: {medianAfrica: 2 * MB, medianEurope: 3 * MB, sigma: 1.0, multiplexExp: 0.6, upFraction: 0.06},
	services.CategorySocial: {medianAfrica: 80 * MB, medianEurope: 28 * MB, sigma: 1.0, multiplexExp: 0.58, upFraction: 0.13},
	services.CategoryVideo:  {medianAfrica: 80 * MB, medianEurope: 150 * MB, sigma: 1.35, multiplexExp: 0.22, upFraction: 0.015},
	services.CategoryWork:   {medianAfrica: 8 * MB, medianEurope: 15 * MB, sigma: 1.3, multiplexExp: 0.6, upFraction: 0.28},
}

// serviceVolumeFactor adjusts a service's volume relative to its category
// median (a WhatsApp day moves more bytes than a Telegram day).
var serviceVolumeFactor = map[string]float64{
	"Whatsapp": 1.0, "Snapchat": 0.55, "Telegram": 0.35, "Wechat": 0.6, "Skype": 0.5,
	"Youtube": 1.7, "Netflix": 1.35, "Primevideo": 1.2, "Sky": 1.3,
	"Instagram": 0.85, "Tiktok": 1.05, "Facebook": 0.6, "Twitter": 0.35, "Linkedin": 0.2,
	"Google": 1.0, "Bing": 0.5, "Yahoo": 0.4, "Duckduck": 0.4,
	"Spotify": 1.0, "Dropbox": 1.0, "Office365": 1.2, "Gsuite": 0.8,
}

// DailyServiceVolume samples the total bytes a customer moves for one
// service on one day (down+up combined; split with upFraction).
func DailyServiceVolume(c *Customer, svc *services.Service, r *dist.Rand) (down, up int64) {
	m, ok := volumeModels[svc.Category]
	if !ok {
		return 0, 0
	}
	median := m.medianEurope
	if c.Country.Continent == geo.Africa {
		median = m.medianAfrica
	}
	if f, ok := serviceVolumeFactor[svc.Name]; ok {
		median *= f
	}
	if c.Multiplex > 1 {
		median *= math.Pow(float64(c.Multiplex), m.multiplexExp)
	}
	total := dist.LogNormalFromMedian(median, m.sigma).Sample(r)
	const maxDaily = 80 << 30 // safety cap: 80 GB/day
	if total > maxDaily {
		total = maxDaily
	}
	up = int64(total * m.upFraction)
	down = int64(total) - up
	return down, up
}

// flowSizeModel gives the per-flow size distribution of a category: video
// moves few big flows, chat many small ones. Sizes are download bytes per
// flow.
type flowSizeModel struct {
	median float64
	sigma  float64
	// maxFlows caps the number of flows a service-day may produce.
	maxFlows int
}

var flowSizes = map[services.Category]flowSizeModel{
	services.CategoryAudio:  {median: 2 * MB, sigma: 0.8, maxFlows: 300},
	services.CategoryChat:   {median: 120 << 10, sigma: 1.5, maxFlows: 2500},
	services.CategorySearch: {median: 50 << 10, sigma: 1.0, maxFlows: 1200},
	services.CategorySocial: {median: 400 << 10, sigma: 1.4, maxFlows: 2500},
	services.CategoryVideo:  {median: 6 * MB, sigma: 1.2, maxFlows: 500},
	services.CategoryWork:   {median: 350 << 10, sigma: 1.5, maxFlows: 1000},
}

// SampleFlowSizes splits a service-day volume into individual flow sizes.
func SampleFlowSizes(cat services.Category, downTotal int64, r *dist.Rand) []int64 {
	m, ok := flowSizes[cat]
	if !ok || downTotal <= 0 {
		return nil
	}
	ln := dist.LogNormalFromMedian(m.median, m.sigma)
	var out []int64
	remaining := downTotal
	for remaining > 0 && len(out) < m.maxFlows {
		s := int64(ln.Sample(r))
		if s < 1<<10 {
			s = 1 << 10
		}
		if s > remaining {
			s = remaining
		}
		out = append(out, s)
		remaining -= s
	}
	if remaining > 0 && len(out) > 0 {
		// Budget exhausted by the flow cap: fold the tail into the last
		// flow so byte accounting stays exact.
		out[len(out)-1] += remaining
	}
	return out
}
