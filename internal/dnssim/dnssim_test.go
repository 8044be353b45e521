package dnssim

import (
	"testing"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/geo"
)

func mustCountry(t *testing.T, code geo.CountryCode) geo.Country {
	t.Helper()
	c, ok := geo.ByCode(code)
	if !ok {
		t.Fatalf("country %s missing", code)
	}
	return c
}

func TestResolverRegistry(t *testing.T) {
	all := Resolvers()
	if len(all) != 9 {
		t.Fatalf("%d resolvers, want the 9 Figure 10 rows", len(all))
	}
	seen := map[ResolverID]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Fatalf("duplicate resolver %s", r.ID)
		}
		seen[r.ID] = true
		if !r.Addr.IsValid() {
			t.Fatalf("%s has no address", r.ID)
		}
		if r.MedianResponse <= 0 {
			t.Fatalf("%s has no median response", r.ID)
		}
	}
	if _, ok := ByID(ResolverGoogle); !ok {
		t.Fatal("ByID broken")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown resolver resolved")
	}
}

func TestFigure10Medians(t *testing.T) {
	want := map[ResolverID]time.Duration{
		ResolverOperator: 3980 * time.Microsecond,
		ResolverGoogle:   21980 * time.Microsecond,
		ResolverBaidu:    355970 * time.Microsecond,
		Resolver114DNS:   109980 * time.Microsecond,
		ResolverNigerian: 119980 * time.Microsecond,
	}
	for id, med := range want {
		r, _ := ByID(id)
		if r.MedianResponse != med {
			t.Errorf("%s median %v, want %v", id, r.MedianResponse, med)
		}
	}
}

func TestOperatorFastestResolver(t *testing.T) {
	op, _ := ByID(ResolverOperator)
	for _, r := range Resolvers() {
		if r.ID != ResolverOperator && r.MedianResponse <= op.MedianResponse {
			t.Fatalf("%s median %v not above operator's %v", r.ID, r.MedianResponse, op.MedianResponse)
		}
	}
}

func TestSampleResponseTimeMedian(t *testing.T) {
	res, _ := ByID(ResolverGoogle)
	r := dist.NewRand(1)
	const n = 40001
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = res.SampleResponseTime(r)
		if samples[i] <= 0 {
			t.Fatal("non-positive response time")
		}
	}
	// Median of samples should land near the calibrated median.
	below := 0
	for _, s := range samples {
		if s < res.MedianResponse {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("%.3f of samples below the calibrated median", frac)
	}
}

func TestAdoptionMatchesFigure10(t *testing.T) {
	if got := adoption["CD"][ResolverGoogle]; got != 85.68 {
		t.Fatalf("Congo Google share %v, want 85.68", got)
	}
	if got := adoption["NG"][ResolverNigerian]; got != 11.84 {
		t.Fatalf("Nigeria local-resolver share %v, want 11.84", got)
	}
	if got := adoption["IE"][ResolverOperator]; got != 43.75 {
		t.Fatalf("Ireland operator share %v, want 43.75", got)
	}
	// The Nigerian resolver is unused outside Africa.
	if adoption["GB"][ResolverNigerian] != 0 {
		t.Fatal("Nigerian resolver used in the U.K.")
	}
}

func TestAdoptionSampling(t *testing.T) {
	w, err := AdoptionFor(mustCountry(t, "CD"))
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRand(2)
	counts := map[ResolverID]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	googleFrac := float64(counts[ResolverGoogle]) / n
	if googleFrac < 0.82 || googleFrac > 0.89 {
		t.Fatalf("Congo Google adoption sampled at %.3f, want ≈0.857", googleFrac)
	}
	if counts[ResolverNigerian] != 0 {
		t.Fatal("zero-share resolver sampled")
	}
}

func TestAdoptionDefaults(t *testing.T) {
	// Countries outside the Figure 10 columns fall back by continent.
	if _, err := AdoptionFor(mustCountry(t, "DE")); err != nil {
		t.Fatal(err)
	}
	if _, err := AdoptionFor(mustCountry(t, "SN")); err != nil {
		t.Fatal(err)
	}
}

func TestOtherAddrStable(t *testing.T) {
	if OtherAddr(5) != OtherAddr(5) {
		t.Fatal("OtherAddr not deterministic")
	}
	if OtherAddr(5) == OtherAddr(6) {
		t.Fatal("adjacent indices collide")
	}
	if ByAddr(OtherAddr(7)).ID != ResolverOther {
		t.Fatal("long-tail address not mapped to Other")
	}
	g, _ := ByID(ResolverGoogle)
	if ByAddr(g.Addr).ID != ResolverGoogle {
		t.Fatal("tracked address not recovered")
	}
}

func selectMany(t *testing.T, e cdn.Entry, res Resolver, c geo.Country, n int) map[cdn.Region]int {
	t.Helper()
	r := dist.NewRand(uint64(len(e.Domain)) + 99)
	out := map[cdn.Region]int{}
	for i := 0; i < n; i++ {
		out[SelectRegion(e, res, c, r)]++
	}
	return out
}

func TestAnycastIgnoresResolver(t *testing.T) {
	e, _ := cdn.Lookup("nflxvideo.net")
	baidu, _ := ByID(ResolverBaidu)
	got := selectMany(t, e, baidu, mustCountry(t, "NG"), 1000)
	if got[cdn.RegionPeered] != 1000 {
		t.Fatalf("anycast selection drifted: %v", got)
	}
}

func TestGeoDNSGatewayViewOptimal(t *testing.T) {
	e, _ := cdn.Lookup("captive.apple.com")
	op, _ := ByID(ResolverOperator)
	got := selectMany(t, e, op, mustCountry(t, "NG"), 1000)
	if got[e.Home] != 1000 {
		t.Fatalf("operator view should be optimal: %v", got)
	}
}

func TestGeoDNSHomelandView(t *testing.T) {
	e, _ := cdn.Lookup("captive.apple.com")
	dns114, _ := ByID(Resolver114DNS)
	got := selectMany(t, e, dns114, mustCountry(t, "NG"), 2000)
	if got[cdn.RegionAsia] < 1500 {
		t.Fatalf("114DNS should mostly return Asian nodes: %v", got)
	}
}

func TestGeoDNSMixedViewAfricanInflation(t *testing.T) {
	e, _ := cdn.Lookup("captive.apple.com")
	google, _ := ByID(ResolverGoogle)
	ng := selectMany(t, e, google, mustCountry(t, "NG"), 4000)
	gb := selectMany(t, e, google, mustCountry(t, "GB"), 4000)
	// African clients via mixed-view resolvers see farther nodes more
	// often than European clients (Table 2: 38.4 ms vs 26.0 ms).
	ngFar := ng[cdn.RegionEurope] + ng[cdn.RegionAfrica]
	gbFar := gb[cdn.RegionEurope] + gb[cdn.RegionAfrica]
	if ngFar <= gbFar {
		t.Fatalf("no African inflation: NG far=%d, GB far=%d", ngFar, gbFar)
	}
	if ng[cdn.RegionAfrica] == 0 {
		t.Fatal("mixed view never returned an African node for an African client")
	}
}

func TestSingleOriginFixed(t *testing.T) {
	e, _ := cdn.Lookup("news.netease.com")
	for _, id := range []ResolverID{ResolverOperator, ResolverGoogle, ResolverBaidu} {
		res, _ := ByID(id)
		got := selectMany(t, e, res, mustCountry(t, "CD"), 500)
		if got[cdn.RegionChina] != 500 {
			t.Fatalf("single-origin drifted via %s: %v", id, got)
		}
	}
}
