package cdn

import (
	"fmt"
	"strconv"
	"strings"

	"satwatch/internal/dist"
)

// AppProtocol is the application protocol a service's clients speak.
type AppProtocol uint8

// The protocol classes of Table 1.
const (
	AppHTTPS    AppProtocol = iota // TLS over TCP 443
	AppHTTP                        // plain HTTP over TCP 80
	AppQUIC                        // QUIC over UDP 443
	AppTCPOther                    // opaque TCP (VPN, mail, games)
	AppRTP                         // RTP over UDP (real-time voice/video)
	AppUDPOther                    // opaque UDP
)

func (p AppProtocol) String() string {
	switch p {
	case AppHTTPS:
		return "TCP/HTTPS"
	case AppHTTP:
		return "TCP/HTTP"
	case AppQUIC:
		return "UDP/QUIC"
	case AppTCPOther:
		return "Other TCP"
	case AppRTP:
		return "UDP/RTP"
	case AppUDPOther:
		return "Other UDP"
	}
	return fmt.Sprintf("AppProtocol(%d)", uint8(p))
}

// HostingKind describes how a domain's server is selected (§6.4).
type HostingKind uint8

const (
	// HostAnycast services reach the closest node regardless of the DNS
	// resolver used (the paper's nflxvideo.net case).
	HostAnycast HostingKind = iota
	// HostGeoDNS services return a server chosen from the *resolver's*
	// idea of where the client is — the mechanism the forced routing
	// through Italy confuses.
	HostGeoDNS
	// HostSingle services live in one fixed region.
	HostSingle
)

// Entry is one catalog domain.
type Entry struct {
	Domain  string // representative FQDN
	Kind    HostingKind
	Home    Region // HostSingle: location; HostGeoDNS/Anycast: best region
	Proto   AppProtocol
	Service string // services registry name, "" when untracked
	Sharded bool   // CDN-style numbered hostname shards exist
}

// The domain catalog: the popular services the paper's Appendix A tracks
// plus the untracked long tail its tables surface (Chinese platforms,
// African local services, OS updates, US clouds).
var catalog = []Entry{
	// Search / Google properties (GeoDNS, best served from peered nodes).
	{Domain: "www.google.com", Kind: HostGeoDNS, Home: RegionPeered, Proto: AppQUIC, Service: "Google"},
	{Domain: "play.googleapis.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS},
	{Domain: "www.gstatic.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS},
	{Domain: "www.youtube.com", Kind: HostGeoDNS, Home: RegionPeered, Proto: AppQUIC, Service: "Youtube"},
	{Domain: "googlevideo.com", Kind: HostGeoDNS, Home: RegionPeered, Proto: AppQUIC, Service: "Youtube", Sharded: true},
	{Domain: "i.ytimg.com", Kind: HostGeoDNS, Home: RegionPeered, Proto: AppQUIC, Service: "Youtube"},
	// Video.
	{Domain: "api-global.netflix.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Netflix"},
	{Domain: "nflxvideo.net", Kind: HostAnycast, Home: RegionPeered, Proto: AppHTTPS, Service: "Netflix", Sharded: true},
	{Domain: "assets.nflxext.com", Kind: HostAnycast, Home: RegionPeered, Proto: AppHTTPS, Service: "Netflix"},
	{Domain: "video-cdn.sky.com", Kind: HostSingle, Home: RegionEuropeNear, Proto: AppHTTP, Service: "Sky"},
	{Domain: "ocsp.sky.com", Kind: HostSingle, Home: RegionEuropeNear, Proto: AppHTTP, Service: "Sky"},
	{Domain: "atv-ps-eu.amazon.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Primevideo"},
	{Domain: "pv-cdn.net", Kind: HostAnycast, Home: RegionPeered, Proto: AppHTTPS, Service: "Primevideo", Sharded: true},
	// Social & chat (Meta properties are GeoDNS with wide presence).
	{Domain: "edge-mqtt.facebook.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS, Service: "Facebook"},
	{Domain: "fbcdn.net", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppQUIC, Service: "Facebook", Sharded: true},
	{Domain: "i.instagram.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS, Service: "Instagram"},
	{Domain: "cdninstagram.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppQUIC, Service: "Instagram", Sharded: true},
	{Domain: "e1.whatsapp.net", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS, Service: "Whatsapp"},
	{Domain: "mmg.whatsapp.net", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS, Service: "Whatsapp"},
	{Domain: "api.twitter.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Twitter"},
	{Domain: "www.linkedin.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Linkedin"},
	{Domain: "v16-webapp.tiktokv.com", Kind: HostGeoDNS, Home: RegionEurope, Proto: AppHTTPS, Service: "Tiktok"},
	{Domain: "tiktokcdn.com", Kind: HostGeoDNS, Home: RegionEurope, Proto: AppHTTPS, Service: "Tiktok", Sharded: true},
	{Domain: "app.snapchat.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Snapchat"},
	{Domain: "web.telegram.org", Kind: HostSingle, Home: RegionEuropeNear, Proto: AppHTTPS, Service: "Telegram"},
	{Domain: "short.weixin.qq.com", Kind: HostSingle, Home: RegionChina, Proto: AppHTTPS, Service: "Wechat"},
	// Audio.
	{Domain: "audio4-fa.scdn.com", Kind: HostAnycast, Home: RegionPeered, Proto: AppHTTPS, Service: "Spotify"},
	{Domain: "api.spotify.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Spotify"},
	// Work.
	{Domain: "outlook.office365.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Office365"},
	{Domain: "teams.microsoft.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Office365"},
	{Domain: "dl.dropboxusercontent.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Dropbox"},
	{Domain: "edge.skype.com", Kind: HostSingle, Home: RegionEurope, Proto: AppHTTPS, Service: "Skype"},
	// Apple & OS updates (the Ireland/U.K. HTTP share of Figure 3).
	{Domain: "captive.apple.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS},
	{Domain: "au.download.windowsupdate.com", Kind: HostSingle, Home: RegionEuropeNear, Proto: AppHTTP},
	{Domain: "gs.apple.com", Kind: HostGeoDNS, Home: RegionEuropeNear, Proto: AppHTTPS},
	// US clouds.
	{Domain: "s3.amazonaws.com", Kind: HostSingle, Home: RegionUSEast, Proto: AppHTTPS},
	{Domain: "github.com", Kind: HostSingle, Home: RegionUSEast, Proto: AppHTTPS},
	{Domain: "api.zoom.us", Kind: HostSingle, Home: RegionUSWest, Proto: AppHTTPS},
	{Domain: "cdn.cloudflare.net", Kind: HostAnycast, Home: RegionPeered, Proto: AppHTTPS, Sharded: true},
	// African local services (§6.2: hairpin through Italy).
	{Domain: "scooper.news", Kind: HostSingle, Home: RegionAfrica, Proto: AppHTTPS},
	{Domain: "shalltry.com", Kind: HostSingle, Home: RegionAfrica, Proto: AppHTTPS},
	{Domain: "www.gtbank.com", Kind: HostSingle, Home: RegionAfrica, Proto: AppHTTPS},
	{Domain: "ewn.co.za", Kind: HostSingle, Home: RegionAfrica, Proto: AppHTTPS},
	{Domain: "www.dstv.com", Kind: HostSingle, Home: RegionAfrica, Proto: AppHTTPS},
	// Chinese platforms popular with the Chinese communities in Africa.
	{Domain: "news.netease.com", Kind: HostSingle, Home: RegionChina, Proto: AppHTTPS},
	{Domain: "www.qq.com", Kind: HostSingle, Home: RegionChina, Proto: AppHTTPS},
	{Domain: "msg.umeng.com", Kind: HostSingle, Home: RegionChina, Proto: AppHTTPS},
	{Domain: "p2.yximgs.com", Kind: HostSingle, Home: RegionChina, Proto: AppHTTPS},
}

var catalogByDomain = func() map[string]Entry {
	m := make(map[string]Entry, len(catalog))
	for _, e := range catalog {
		m[e.Domain] = e
	}
	return m
}()

// Catalog returns all entries in a stable order.
func Catalog() []Entry {
	out := make([]Entry, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup finds the catalog entry serving an FQDN: an exact match, or the
// sharded base domain the FQDN ends with.
func Lookup(fqdn string) (Entry, bool) {
	fqdn = strings.ToLower(strings.TrimSuffix(fqdn, "."))
	if e, ok := catalogByDomain[fqdn]; ok {
		return e, true
	}
	for _, e := range catalog {
		if e.Sharded && strings.HasSuffix(fqdn, "."+e.Domain) {
			return e, true
		}
	}
	return Entry{}, false
}

// FQDN returns a concrete hostname for the entry. Sharded entries get a
// CDN-style numbered shard label (deterministic per draw), matching the
// paper's observation that CDN names embed numbers and country codes.
// The name is built in a stack buffer, so the returned string is the only
// allocation.
func (e Entry) FQDN(r *dist.Rand) string {
	if !e.Sharded {
		return e.Domain
	}
	var buf [64]byte
	b := buf[:0]
	switch {
	case strings.Contains(e.Domain, "googlevideo"):
		b = append(b, "rr"...)
		b = strconv.AppendInt(b, int64(1+r.IntN(8)), 10)
		v := r.IntN(256)
		const hex = "0123456789abcdef"
		b = append(b, "---sn-"...)
		b = append(b, hex[v>>4], hex[v&15])
	case strings.Contains(e.Domain, "nflxvideo"):
		v := r.IntN(200)
		b = append(b, "ipv4-c"...)
		b = append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
		b = append(b, "-mxp001-ix.1.oca"...)
	case strings.Contains(e.Domain, "fbcdn"):
		b = append(b, "scontent-mxp"...)
		b = strconv.AppendInt(b, int64(1+r.IntN(2)), 10)
		b = append(b, "-1.xx"...)
	default:
		b = append(b, "cdn"...)
		b = strconv.AppendInt(b, int64(1+r.IntN(16)), 10)
	}
	b = append(b, '.')
	b = append(b, e.Domain...)
	return string(b)
}
