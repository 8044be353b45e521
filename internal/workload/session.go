package workload

import (
	"fmt"
	"math"
	"net/netip"
	"time"
	"unsafe"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/geo"
	"satwatch/internal/services"
)

// FlowIntent is one application-level flow the population wants to make:
// the input to the network simulator.
type FlowIntent struct {
	Customer *Customer
	// Start is the flow's start, offset from the simulation epoch (UTC).
	Start time.Duration
	// Entry is the catalog entry being contacted, pointing into this
	// package's read-only catalog tables; nil for opaque flows (VPN, RTP,
	// unknown UDP), which use OpaqueServer instead.
	Entry  *cdn.Entry
	Domain string // concrete FQDN; "" for opaque flows
	Proto  cdn.AppProtocol
	// OpaqueServer/OpaqueRegion locate the server of non-catalog flows.
	OpaqueServer netip.Addr
	OpaqueRegion cdn.Region
	Down, Up     int64
}

// trackedServices are the services the generator schedules explicitly.
var trackedServices = []string{
	"Google", "Whatsapp", "Snapchat", "Wechat", "Telegram", "Instagram",
	"Tiktok", "Netflix", "Primevideo", "Sky", "Spotify", "Dropbox",
	"Youtube", "Facebook", "Office365",
}

// entriesByService indexes the catalog once.
var entriesByService = func() map[string][]cdn.Entry {
	m := map[string][]cdn.Entry{}
	for _, e := range cdn.Catalog() {
		if e.Service != "" {
			m[e.Service] = append(m[e.Service], e)
		}
	}
	return m
}()

// backgroundEntries are the untracked domains every CPE talks to
// (telemetry, captive checks, OS updates, clouds).
var backgroundEntries = func() []cdn.Entry {
	var out []cdn.Entry
	for _, d := range []string{
		"captive.apple.com", "gs.apple.com", "play.googleapis.com", "www.gstatic.com",
		"au.download.windowsupdate.com", "s3.amazonaws.com", "github.com",
		"api.zoom.us", "cdn.cloudflare.net",
	} {
		out = append(out, mustLookup(d))
	}
	return out
}()

// windowsUpdate is the plain-HTTP update host behind the OS downloads.
var windowsUpdate = mustLookup("au.download.windowsupdate.com")

func mustLookup(domain string) cdn.Entry {
	e, ok := cdn.Lookup(domain)
	if !ok {
		panic("workload: domain missing from catalog: " + domain)
	}
	return e
}

var africanEntries = func() []cdn.Entry {
	var out []cdn.Entry
	for _, e := range cdn.Catalog() {
		if e.Home == cdn.RegionAfrica {
			out = append(out, e)
		}
	}
	return out
}()

var chineseEntries = func() []cdn.Entry {
	var out []cdn.Entry
	for _, e := range cdn.Catalog() {
		if e.Home == cdn.RegionChina && e.Service == "" {
			out = append(out, e)
		}
	}
	return out
}()

// Day is 24 hours of simulated time.
const Day = 24 * time.Hour

// MemBytes estimates the retained heap footprint of one intent, for the
// simulator's pass-A intent cache budget. The struct itself plus the
// per-flow FQDN string; the catalog entry is shared with this package's
// tables and not counted.
func (fi *FlowIntent) MemBytes() int {
	return int(unsafe.Sizeof(*fi)) + len(fi.Domain)
}

// GenerateDay produces all flow intents of one customer for one day.
// Determinism: the caller derives r per (customer, day).
func GenerateDay(c *Customer, day int, r *dist.Rand) []FlowIntent {
	return AppendDay(nil, c, day, r)
}

// AppendDay appends the intents GenerateDay produces to dst and returns
// the extended slice, so a caller generating many customer-days can reuse
// one buffer.
func AppendDay(dst []FlowIntent, c *Customer, day int, r *dist.Rand) []FlowIntent {
	dayStart := time.Duration(day) * Day
	diurnal := DiurnalFor(c.Type)
	tz := c.Country.TZOffset

	stamp := func() time.Duration {
		local := diurnal.SampleTimeOfDay(r)
		utc := local - time.Duration(tz)*time.Hour
		for utc < 0 {
			utc += Day
		}
		for utc >= Day {
			utc -= Day
		}
		return dayStart + utc
	}

	if !c.IsActiveDay(day, r) {
		// Idle CPE: telemetry and update checks only (the Figure 5a
		// knee: tens to a couple hundred tiny flows).
		n := 25 + r.IntN(120)
		for i := 0; i < n; i++ {
			e := &backgroundEntries[r.IntN(len(backgroundEntries))]
			size := int64(2<<10 + r.IntN(40<<10))
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
				Domain: e.FQDN(r), Proto: e.Proto, Down: size, Up: size / 8})
		}
		return dst
	}

	// Tracked services per the Figure 6 penetration, boosted for
	// community APs (any of the multiplexed users may use the service).
	for _, name := range trackedServices {
		svc, ok := services.ByName(name)
		if !ok {
			continue
		}
		p := PenetrationFor(name, c.Country)
		if c.Multiplex > 1 {
			p = 1 - math.Pow(1-p, math.Sqrt(float64(c.Multiplex)))
		}
		if !r.Bool(p) {
			continue
		}
		down, up := DailyServiceVolume(c, svc, r)
		sizes := SampleFlowSizes(svc.Category, down, r)
		entries := entriesByService[name]
		if len(entries) == 0 {
			continue
		}
		for _, sz := range sizes {
			e := &entries[r.IntN(len(entries))]
			flowUp := int64(float64(sz) * float64(up) / float64(down+1))
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
				Domain: e.FQDN(r), Proto: e.Proto, Down: sz, Up: flowUp + 200})
		}
	}

	// Background traffic for active customers.
	nBg := 50 + r.IntN(120)
	for i := 0; i < nBg; i++ {
		e := &backgroundEntries[r.IntN(len(backgroundEntries))]
		size := int64(3<<10 + r.IntN(200<<10))
		dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
			Domain: e.FQDN(r), Proto: e.Proto, Down: size, Up: size / 8})
	}

	// OS/software update downloads over plain HTTP (with Sky's HTTP video
	// these drive the Figure 3 unencrypted-web share).
	updateProb := 0.25
	if c.Country.Continent == geo.Africa {
		updateProb = 0.12
	}
	if r.Bool(updateProb) {
		e := &windowsUpdate
		size := int64(dist.LogNormalFromMedian(50*MB, 1.1).Sample(r))
		dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
			Domain: e.Domain, Proto: cdn.AppHTTP, Down: size, Up: size / 100})
	}

	// African customers reach services hosted back home (§6.2's 300-400ms
	// ground-RTT bump).
	if c.Country.Continent == geo.Africa && r.Bool(0.55) {
		n := 2 + r.IntN(10)
		for i := 0; i < n; i++ {
			e := &africanEntries[r.IntN(len(africanEntries))]
			size := int64(dist.LogNormalFromMedian(150<<10, 1.2).Sample(r))
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
				Domain: e.FQDN(r), Proto: e.Proto, Down: size, Up: size / 10})
		}
	}

	// Chinese-community customers use Chinese platforms (§5, §6.2).
	if c.ChineseCommunity {
		n := 4 + r.IntN(12)
		for i := 0; i < n; i++ {
			e := &chineseEntries[r.IntN(len(chineseEntries))]
			size := int64(dist.LogNormalFromMedian(400<<10, 1.3).Sample(r))
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(), Entry: e,
				Domain: e.FQDN(r), Proto: e.Proto, Down: size, Up: size / 8})
		}
	}

	// Business sites run VPN tunnels: long opaque TCP flows (the German
	// other-TCP share of Figure 3).
	if c.Type == Business {
		n := 1 + r.IntN(3)
		for i := 0; i < n; i++ {
			vol := int64(dist.LogNormalFromMedian(140*MB, 1.0).Sample(r))
			region := cdn.RegionEurope
			if r.Bool(0.2) {
				region = cdn.RegionUSEast
			}
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(),
				Proto:        cdn.AppTCPOther,
				OpaqueServer: cdn.ServerAddr(fmt.Sprintf("vpn-%d-%d", c.ID, i), region, 0),
				OpaqueRegion: region,
				Down:         vol, Up: int64(float64(vol) * 0.45)})
		}
	}

	// Real-time calls (RTP over UDP, Table 1's 1.1% of volume despite the
	// 550 ms of latency).
	callProb := 0.12
	if c.Country.Continent == geo.Africa {
		callProb = 0.2
	}
	if c.Multiplex > 1 {
		callProb = 0.8
	}
	if r.Bool(callProb) {
		n := 1 + r.IntN(3)
		if c.Multiplex > 1 {
			n = 2 + r.IntN(5)
		}
		for i := 0; i < n; i++ {
			// 1-15 minutes; audio ~80 kb/s, sometimes video ~400 kb/s.
			secs := 60 + r.IntN(840)
			rate := 80_000
			if r.Bool(0.45) {
				rate = 400_000
			}
			vol := int64(secs * rate / 8)
			region := cdn.RegionEuropeNear
			dst = append(dst, FlowIntent{Customer: c, Start: stamp(),
				Proto:        cdn.AppRTP,
				OpaqueServer: cdn.ServerAddr(fmt.Sprintf("turn-%d-%d", c.ID, i), region, 0),
				OpaqueRegion: region,
				Down:         vol, Up: vol})
		}
	}

	// Miscellaneous UDP (games, STUN, P2P chatter, VPN-over-UDP).
	nUDP := r.IntN(11)
	for i := 0; i < nUDP; i++ {
		region := cdn.RegionEurope
		size := int64(dist.LogNormalFromMedian(3*MB, 1.5).Sample(r))
		dst = append(dst, FlowIntent{Customer: c, Start: stamp(),
			Proto:        cdn.AppUDPOther,
			OpaqueServer: cdn.ServerAddr(fmt.Sprintf("udp-%d-%d", c.ID, i), region, 0),
			OpaqueRegion: region,
			Down:         size, Up: size / 3})
	}

	return dst
}
