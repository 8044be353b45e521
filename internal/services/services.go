// Package services classifies server domain names into the services and
// categories of the paper's Appendix A (Table 3). The regular expressions
// are the paper's, normalized to Go syntax with literal dots escaped; the
// classification is by first match in declaration order, so e.g. Skype
// domains resolve to the Skype chat service before Office365's broader
// "skype" pattern can claim them.
//
// The classification feeds two consumers. The analytics side maps each
// tstat flow record's DPI-named domain to a service, producing the
// per-service popularity heatmap (Figure 6) and the per-category volume
// boxplots (Figure 7). The workload side uses the same table in reverse,
// sampling the domains each archetype visits so that synthesized traffic
// classifies back to the paper's penetration matrix. Each Service carries
// an Intentional flag separating deliberately visited services (the
// Figure 6 rows) from ones that mostly appear as embedded third parties
// (YouTube players, Facebook buttons), which the paper excludes from the
// popularity analysis; Classify matches any of them.
package services

import (
	"regexp"
	"strings"
)

// Category is a service category of §3.1.
type Category string

// The six categories the paper analyzes.
const (
	CategoryAudio  Category = "Audio"
	CategoryVideo  Category = "Video"
	CategorySocial Category = "Social"
	CategorySearch Category = "Search engine"
	CategoryChat   Category = "Chat"
	CategoryWork   Category = "Work"
)

// Categories lists all categories in the paper's presentation order.
func Categories() []Category {
	return []Category{CategoryAudio, CategoryChat, CategorySearch, CategorySocial, CategoryVideo, CategoryWork}
}

// Service is one classified service.
type Service struct {
	Name     string
	Category Category
	// Intentional marks services whose domains the paper considers
	// deliberately visited (the Figure 6 rows); services that commonly
	// appear as third parties (YouTube embeds, Facebook buttons) are not.
	Intentional bool

	patterns []*regexp.Regexp
	raw      []string
}

// Patterns returns the service's regular expressions as written (the
// paper's Table 3 column).
func (s *Service) Patterns() []string {
	out := make([]string, len(s.raw))
	copy(out, s.raw)
	return out
}

// Match reports whether domain belongs to this service.
func (s *Service) Match(domain string) bool {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	for _, re := range s.patterns {
		if re.MatchString(domain) {
			return true
		}
	}
	return false
}

func svc(name string, cat Category, intentional bool, patterns ...string) *Service {
	s := &Service{Name: name, Category: cat, Intentional: intentional, raw: patterns}
	for _, p := range patterns {
		s.patterns = append(s.patterns, regexp.MustCompile(p))
	}
	return s
}

// registry is Table 3 in declaration (priority) order.
var registry = []*Service{
	svc("Spotify", CategoryAudio, true, `spotify\.com$`, `\.scdn\.com$`),
	svc("Youtube", CategoryVideo, false, `googlevideo\.com$`, `\.ytimg\.com$`, `\.youtube\.com$`,
		`\.gvt1\.com$`, `\.gvt2\.com$`, `\.youtube-nocookie\.com$`),
	svc("Netflix", CategoryVideo, true, `netflix`, `nflxext\.`, `nflximg`, `nflxvideo`, `nflxso\.`),
	svc("Sky", CategoryVideo, true, `\.sky\.com$`),
	svc("Primevideo", CategoryVideo, true, `amazonvideo\.com$`, `primevideo\.com$`, `pv-cdn\.net$`,
		`atv-ps\.amazon\.com$`, `atv-ext\.amazon\.com$`, `atv-ext-eu\.amazon\.com$`,
		`atv-ext-fe\.amazon\.com$`, `atv-ps-eu\.amazon`, `atv-ps-fe\.amazon`),
	svc("Facebook", CategorySocial, false, `facebook\.com$`, `fbcdn\.net$`, `facebook\.net$`,
		`^fbcdn`, `^fbstatic`, `^fbexternal`, `fbsbx\.com$`, `fb\.com$`),
	svc("Twitter", CategorySocial, false, `\.twitter`, `\.twimg`, `^twitter\.com$`,
		`twitter\.com\.edgesuite\.net`, `twitter-any\.s3\.amazonaws\.com`, `twitter-blog\.s3\.amazonaws\.com`),
	svc("Linkedin", CategorySocial, false, `linkedin\.com$`, `licdn\.com$`, `lnkd\.in$`),
	svc("Instagram", CategorySocial, true, `\.instagram\.com$`, `cdninstagram\.com$`, `^igcdn`),
	svc("Tiktok", CategorySocial, true, `tiktok\.com$`, `tiktokcdn`, `tiktokv\.com$`),
	svc("Google", CategorySearch, true, `^www\.google`, `^google\.`),
	svc("Bing", CategorySearch, false, `bing\.com$`),
	svc("Yahoo", CategorySearch, false, `\.yahoo\.com$`, `\.yahoo\.net$`, `\.yimg\.com$`),
	svc("Duckduck", CategorySearch, false, `\.duckduckgo\.`),
	svc("Whatsapp", CategoryChat, true, `\.whatsapp\.com$`, `\.whatsapp\.net$`),
	svc("Telegram", CategoryChat, true, `\.telegram\.org$`, `^telegram\.org$`),
	svc("Snapchat", CategoryChat, true, `\.snapchat\.com$`, `feelinsonice\.appspot\.com$`,
		`feelinsonice-hrd\.appspot\.com$`, `feelinsonice\.l\.google\.com$`),
	svc("Wechat", CategoryChat, true, `wechat\.com$`, `weixin\.qq\.com$`, `wxs\.qq\.com$`),
	svc("Skype", CategoryChat, false, `skypeassets\.com$`, `\.skype\.com$`, `\.skype\.net$`),
	svc("Office365", CategoryWork, false, `sharepoint\.com$`, `office\.net$`, `onenote\.com$`,
		`office365\.com$`, `office\.com$`, `teams\.microsoft`, `teams\.office`, `lync`, `live\.com$`),
	svc("Gsuite", CategoryWork, false, `googledrive\.com$`, `\.drive\.google\.com$`, `\.docs\.google\.com$`,
		`\.sheets\.google\.com$`, `\.slides\.google\.com$`, `\.takeout\.google\.com$`),
	svc("Dropbox", CategoryWork, true, `dropbox`, `db\.tt$`),
}

// Services returns the full registry in priority order.
func Services() []*Service { return registry }

// ByName looks a service up by name.
func ByName(name string) (*Service, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Intentional returns the Figure 6 services in the paper's row order.
func Intentional() []*Service {
	order := []string{"Google", "Whatsapp", "Snapchat", "Wechat", "Telegram",
		"Instagram", "Tiktok", "Netflix", "Primevideo", "Sky", "Spotify", "Dropbox"}
	out := make([]*Service, 0, len(order))
	for _, n := range order {
		s, ok := ByName(n)
		if !ok {
			panic("services: intentional service " + n + " missing from registry")
		}
		out = append(out, s)
	}
	return out
}

// Classify maps a domain to its service, by first match. ok is false for
// domains belonging to none of the tracked services.
func Classify(domain string) (service *Service, ok bool) {
	for _, s := range registry {
		if s.Match(domain) {
			return s, true
		}
	}
	return nil, false
}

// SecondLevel returns the second-level registrable domain of a FQDN,
// handling the common two-label public suffixes the deployment sees
// (co.uk, co.za, com.ng, ...), per the paper's footnote 6.
func SecondLevel(domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	labels := strings.Split(domain, ".")
	if len(labels) <= 2 {
		return domain
	}
	tld := labels[len(labels)-1]
	sld := labels[len(labels)-2]
	twoLabelSuffix := map[string]bool{
		"co": true, "com": true, "org": true, "net": true, "ac": true, "gov": true,
	}
	if len(sld) <= 3 && twoLabelSuffix[sld] && len(tld) == 2 {
		if len(labels) >= 3 {
			return strings.Join(labels[len(labels)-3:], ".")
		}
	}
	return strings.Join(labels[len(labels)-2:], ".")
}
