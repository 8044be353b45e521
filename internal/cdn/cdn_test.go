package cdn

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"satwatch/internal/dist"
)

func TestFigure9Bumps(t *testing.T) {
	// The paper's ground-RTT clusters: ~12, 15-17, 35, 95, 180, 300-400 ms.
	cases := map[Region][2]time.Duration{
		RegionPeered:     {10 * time.Millisecond, 14 * time.Millisecond},
		RegionEuropeNear: {14 * time.Millisecond, 18 * time.Millisecond},
		RegionEurope:     {30 * time.Millisecond, 40 * time.Millisecond},
		RegionUSEast:     {90 * time.Millisecond, 100 * time.Millisecond},
		RegionUSWest:     {170 * time.Millisecond, 190 * time.Millisecond},
		RegionAfrica:     {300 * time.Millisecond, 400 * time.Millisecond},
	}
	for reg, band := range cases {
		m := bands[reg].median
		if m < band[0] || m > band[1] {
			t.Errorf("%s median %v outside paper band [%v, %v]", reg, m, band[0], band[1])
		}
	}
}

func TestSampleGroundRTTConcentration(t *testing.T) {
	r := dist.NewRand(1)
	const n = 20000
	within := 0
	med := bands[RegionEurope].median
	for i := 0; i < n; i++ {
		s := SampleGroundRTT(RegionEurope, r)
		if s <= 0 {
			t.Fatalf("non-positive RTT sample %v", s)
		}
		if s > med/2 && s < med*2 {
			within++
		}
	}
	if frac := float64(within) / n; frac < 0.95 {
		t.Fatalf("only %.2f of samples within 2x of the median; band too loose", frac)
	}
}

func TestSampleGroundRTTUnknownRegionFallsBack(t *testing.T) {
	r := dist.NewRand(2)
	if SampleGroundRTT(Region("nowhere"), r) <= 0 {
		t.Fatal("fallback region broken")
	}
}

func TestServerAddrDeterminismAndRegion(t *testing.T) {
	a1 := ServerAddr("www.google.com", RegionPeered, 0)
	a2 := ServerAddr("www.google.com", RegionPeered, 0)
	if a1 != a2 {
		t.Fatal("same inputs gave different addresses")
	}
	if ServerAddr("www.google.com", RegionPeered, 1) == a1 {
		t.Fatal("different replicas share an address")
	}
	reg, ok := RegionOf(a1)
	if !ok || reg != RegionPeered {
		t.Fatalf("RegionOf(%v) = %v,%v", a1, reg, ok)
	}
	for region := range bands {
		addr := ServerAddr("x.example", region, 3)
		got, ok := RegionOf(addr)
		if !ok || got != region {
			t.Fatalf("round trip for %s failed: got %v", region, got)
		}
		b := addr.As4()
		if b[3] == 0 || b[3] == 255 {
			t.Fatalf("degenerate host byte in %v", addr)
		}
	}
}

func TestRegionOfUnknown(t *testing.T) {
	if _, ok := RegionOf(ServerAddr("x", Region("bogus"), 0)); !ok {
		// Bogus regions fall back to Europe's prefix, which is known.
		t.Fatal("fallback prefix not recognized")
	}
}

func TestCatalogLookup(t *testing.T) {
	if _, ok := Lookup("www.google.com"); !ok {
		t.Fatal("exact lookup failed")
	}
	e, ok := Lookup("rr3---sn-4g5ednd6.googlevideo.com")
	if !ok {
		t.Fatal("sharded suffix lookup failed")
	}
	if e.Service != "Youtube" {
		t.Fatalf("sharded entry service %q", e.Service)
	}
	if _, ok := Lookup("unknown.example"); ok {
		t.Fatal("unknown domain resolved")
	}
	if _, ok := Lookup("WWW.GOOGLE.COM."); !ok {
		t.Fatal("case/dot normalization failed")
	}
}

func TestCatalogConsistency(t *testing.T) {
	for _, e := range Catalog() {
		if e.Domain == "" {
			t.Fatal("entry without domain")
		}
		if _, ok := bands[e.Home]; !ok {
			t.Fatalf("%s home region %q has no RTT band", e.Domain, e.Home)
		}
		if e.Kind == HostAnycast && e.Home != RegionPeered {
			t.Errorf("%s: anycast entries should resolve to the peered region", e.Domain)
		}
	}
}

func TestAfricanAndChineseServicesExist(t *testing.T) {
	// §6.2's rightmost bumps need local-African and Chinese services.
	var af, cn int
	for _, e := range Catalog() {
		switch e.Home {
		case RegionAfrica:
			af++
		case RegionChina:
			cn++
		}
	}
	if af < 3 || cn < 3 {
		t.Fatalf("catalog has %d African and %d Chinese entries, want ≥3 each", af, cn)
	}
}

func TestFQDNShards(t *testing.T) {
	r := dist.NewRand(3)
	gv, _ := Lookup("googlevideo.com")
	f := gv.FQDN(r)
	if e, ok := Lookup(f); !ok || e.Domain != "googlevideo.com" {
		t.Fatalf("shard %q does not resolve to its base entry", f)
	}
	plain, _ := Lookup("www.google.com")
	if plain.FQDN(r) != "www.google.com" {
		t.Fatal("non-sharded entry produced a variant")
	}
	nf, _ := Lookup("nflxvideo.net")
	if e, ok := Lookup(nf.FQDN(r)); !ok || e.Service != "Netflix" {
		t.Fatal("netflix shard broken")
	}
}

func TestProtocolStrings(t *testing.T) {
	if AppHTTPS.String() != "TCP/HTTPS" || AppQUIC.String() != "UDP/QUIC" {
		t.Fatal("protocol names do not match Table 1 rows")
	}
}

// referenceFQDN is FQDN as it was written with fmt.Sprintf: the oracle
// for the append form, which must give the same name from the same draws.
func referenceFQDN(e Entry, r *dist.Rand) string {
	if !e.Sharded {
		return e.Domain
	}
	switch {
	case strings.Contains(e.Domain, "googlevideo"):
		return fmt.Sprintf("rr%d---sn-%02x.%s", 1+r.IntN(8), r.IntN(256), e.Domain)
	case strings.Contains(e.Domain, "nflxvideo"):
		return fmt.Sprintf("ipv4-c%03d-mxp001-ix.1.oca.%s", r.IntN(200), e.Domain)
	case strings.Contains(e.Domain, "fbcdn"):
		return fmt.Sprintf("scontent-mxp%d-1.xx.%s", 1+r.IntN(2), e.Domain)
	default:
		return fmt.Sprintf("cdn%d.%s", 1+r.IntN(16), e.Domain)
	}
}

// TestFQDNMatchesReference: every sharded entry, over 10 000 seeds, gets
// the reference's name and leaves its stream where the reference leaves
// it, so the workload draws nothing differently afterwards.
func TestFQDNMatchesReference(t *testing.T) {
	sharded := 0
	for _, e := range Catalog() {
		if !e.Sharded {
			continue
		}
		sharded++
		for seed := uint64(0); seed < 10000; seed++ {
			got, want := dist.NewRand(seed), dist.NewRand(seed)
			if g, w := e.FQDN(got), referenceFQDN(e, want); g != w {
				t.Fatalf("%s seed %d: FQDN %q, reference %q", e.Domain, seed, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s seed %d: next draw %#x after FQDN, %#x after the reference", e.Domain, seed, g, w)
			}
		}
		r := dist.NewRand(1)
		if n := testing.AllocsPerRun(100, func() { _ = e.FQDN(r) }); n > 1 {
			t.Errorf("%s: FQDN allocates %v objects, want ≤ 1", e.Domain, n)
		}
	}
	if sharded == 0 {
		t.Fatal("catalog has no sharded entry")
	}
}
