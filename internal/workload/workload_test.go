package workload

import (
	"sort"
	"testing"
	"time"

	"satwatch/internal/cdn"
	"satwatch/internal/dist"
	"satwatch/internal/geo"
	"satwatch/internal/services"
)

func pop(t *testing.T, n int, seed uint64) []*Customer {
	t.Helper()
	cs, err := BuildPopulation(n, dist.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestProfilesSharesSumToOne(t *testing.T) {
	sum := 0.0
	for _, p := range Profiles() {
		if p.CustomerShare <= 0 {
			t.Fatalf("%s share %v", p.Country.Code, p.CustomerShare)
		}
		sum += p.CustomerShare
		tm := 0.0
		for _, w := range p.TypeMix {
			tm += w
		}
		if tm < 0.99 || tm > 1.01 {
			t.Fatalf("%s type mix sums to %v", p.Country.Code, tm)
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("country shares sum to %v", sum)
	}
}

func TestAfricanPlansCappedAt30(t *testing.T) {
	// §6.5: the operator sells 10 and 30 Mb/s plans in Africa.
	for _, p := range Profiles() {
		if p.Country.Continent != geo.Africa {
			continue
		}
		for mbps := range p.PlanMix {
			if mbps > 30 {
				t.Fatalf("%s sells a %v Mb/s plan", p.Country.Code, mbps)
			}
		}
	}
}

func TestOnlyAfricaHasCommunityAPs(t *testing.T) {
	for _, p := range Profiles() {
		if p.Country.Continent == geo.Europe && p.TypeMix[CommunityAP] > 0 {
			t.Fatalf("%s has community APs", p.Country.Code)
		}
		if p.Country.Continent == geo.Africa && p.TypeMix[CommunityAP] == 0 {
			t.Fatalf("%s has no community APs", p.Country.Code)
		}
	}
}

func TestBuildPopulationComposition(t *testing.T) {
	cs := pop(t, 1000, 1)
	if len(cs) < 950 || len(cs) > 1050 {
		t.Fatalf("population %d, want ≈1000", len(cs))
	}
	byCountry := map[geo.CountryCode]int{}
	seenAddr := map[string]bool{}
	for _, c := range cs {
		byCountry[c.Country.Code]++
		if seenAddr[c.Addr.String()] {
			t.Fatalf("duplicate CPE address %v", c.Addr)
		}
		seenAddr[c.Addr.String()] = true
		if sub, ok := SubnetFor(c.Country.Code); !ok || !sub.Contains(c.Addr) {
			t.Fatalf("address %v outside %v, the block of %v", c.Addr, sub, c.Country.Code)
		}
		if c.Multiplex < 1 {
			t.Fatal("multiplex below 1")
		}
		if c.Type == CommunityAP && c.Multiplex < 6 {
			t.Fatal("AP without multiplexed users")
		}
		if c.Type != CommunityAP && c.Multiplex != 1 {
			t.Fatal("non-AP with multiplexing")
		}
		if !c.Resolver.Addr.IsValid() {
			t.Fatal("customer without resolver")
		}
	}
	// Figure 2 calibration: Congo ≈20% of customers, Spain ≈16%.
	if f := float64(byCountry["CD"]) / float64(len(cs)); f < 0.17 || f > 0.23 {
		t.Fatalf("Congo share %.3f, want ≈0.20", f)
	}
	if f := float64(byCountry["ES"]) / float64(len(cs)); f < 0.13 || f > 0.19 {
		t.Fatalf("Spain share %.3f, want ≈0.16", f)
	}
}

func TestPopulationDeterminism(t *testing.T) {
	a := pop(t, 300, 7)
	b := pop(t, 300, 7)
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Type != b[i].Type || a[i].Resolver.ID != b[i].Resolver.ID {
			t.Fatalf("population not deterministic at %d", i)
		}
	}
}

func TestResolverAdoptionShape(t *testing.T) {
	cs := pop(t, 4000, 3)
	googleCD, totalCD := 0, 0
	operatorIE, totalIE := 0, 0
	for _, c := range cs {
		switch c.Country.Code {
		case "CD":
			totalCD++
			if c.Resolver.ID == "Google" {
				googleCD++
			}
		case "IE":
			totalIE++
			if c.Resolver.ID == "Operator-EU" {
				operatorIE++
			}
		}
	}
	if f := float64(googleCD) / float64(totalCD); f < 0.78 || f > 0.92 {
		t.Fatalf("Congo Google resolver share %.2f, want ≈0.86", f)
	}
	if f := float64(operatorIE) / float64(totalIE); f < 0.33 || f > 0.54 {
		t.Fatalf("Ireland operator share %.2f, want ≈0.44", f)
	}
}

func TestPenetrationFigure6Values(t *testing.T) {
	es := mustCountry("ES")
	if p := PenetrationFor("Whatsapp", es); p != 0.6382 {
		t.Fatalf("Spain WhatsApp penetration %v", p)
	}
	cd := mustCountry("CD")
	if p := PenetrationFor("Wechat", cd); p != 0.0642 {
		t.Fatalf("Congo WeChat penetration %v", p)
	}
	if PenetrationFor("Nope", es) != 0 {
		t.Fatal("unknown service penetrated")
	}
	// Fallback for uncharted countries.
	sn := mustCountry("SN")
	if p := PenetrationFor("Whatsapp", sn); p <= 0.4 || p >= 0.7 {
		t.Fatalf("Senegal fallback penetration %v", p)
	}
}

func TestDailyServiceVolumeShape(t *testing.T) {
	r := dist.NewRand(5)
	chat, _ := services.ByName("Whatsapp")
	cdCust := &Customer{Country: mustCountry("CD"), Multiplex: 1}
	esCust := &Customer{Country: mustCountry("ES"), Multiplex: 1}
	apCust := &Customer{Country: mustCountry("CD"), Multiplex: 25, Type: CommunityAP}

	median := func(c *Customer) int64 {
		var vols []int64
		for i := 0; i < 2001; i++ {
			d, u := DailyServiceVolume(c, chat, r)
			vols = append(vols, d+u)
		}
		sort.Slice(vols, func(i, j int) bool { return vols[i] < vols[j] })
		return vols[len(vols)/2]
	}
	mCD, mES, mAP := median(cdCust), median(esCust), median(apCust)
	// Figure 7: African chat volumes are an order of magnitude (or more)
	// above European ones; APs amplify further.
	if mCD < 8*mES {
		t.Fatalf("Congo chat median %d not ≫ Spain's %d", mCD, mES)
	}
	if mAP < 3*mCD {
		t.Fatalf("AP chat median %d not ≫ residential %d", mAP, mCD)
	}
	if mES > 40*MB {
		t.Fatalf("Spain chat median %d too high", mES)
	}
}

func TestUploadFractionChatHighest(t *testing.T) {
	if volumeModels[services.CategoryChat].upFraction <= volumeModels[services.CategoryVideo].upFraction {
		t.Fatal("chat upload share should dominate video's (Figure 5c mechanism)")
	}
}

func TestSampleFlowSizesConservesBytes(t *testing.T) {
	r := dist.NewRand(6)
	for _, cat := range services.Categories() {
		total := int64(50 * MB)
		sizes := SampleFlowSizes(cat, total, r)
		if len(sizes) == 0 {
			t.Fatalf("%s: no flows", cat)
		}
		var sum int64
		for _, s := range sizes {
			if s <= 0 {
				t.Fatalf("%s: non-positive flow size", cat)
			}
			sum += s
		}
		if sum != total {
			t.Fatalf("%s: flows sum to %d, want %d", cat, sum, total)
		}
	}
	if SampleFlowSizes(services.CategoryChat, 0, r) != nil {
		t.Fatal("zero volume produced flows")
	}
}

func TestVideoFlowsBiggerThanChatFlows(t *testing.T) {
	r := dist.NewRand(7)
	video := SampleFlowSizes(services.CategoryVideo, 100*MB, r)
	chat := SampleFlowSizes(services.CategoryChat, 100*MB, r)
	if len(video) >= len(chat) {
		t.Fatalf("video split 100MB into %d flows, chat into %d — wrong granularity", len(video), len(chat))
	}
}

func TestGenerateDayIdleCustomersFewFlows(t *testing.T) {
	r := dist.NewRand(8)
	c := &Customer{Country: mustCountry("ES"), Type: SecondHome, Multiplex: 1}
	// Second homes are idle ~88% of days; over many days most must land
	// under the Figure 5a knee (≤250 flows) with only tiny flows.
	idleDays := 0
	const days = 60
	for day := 0; day < days; day++ {
		flows := GenerateDay(c, day, r.ForkN("day", uint64(day)))
		if len(flows) == 0 {
			t.Fatalf("day %d produced no flows at all", day)
		}
		small := true
		for _, f := range flows {
			if f.Down > MB {
				small = false
				break
			}
		}
		if small && len(flows) <= 250 {
			idleDays++
		}
	}
	if idleDays < days*6/10 {
		t.Fatalf("only %d/%d second-home days under the knee", idleDays, days)
	}
}

func TestGenerateDayActiveResidentialEU(t *testing.T) {
	r := dist.NewRand(9)
	c := &Customer{ID: 1, Country: mustCountry("GB"), Type: Residential, Multiplex: 1}
	flows := GenerateDay(c, 0, r)
	if len(flows) < 40 || len(flows) > 3000 {
		t.Fatalf("EU residential day has %d flows", len(flows))
	}
	var haveTracked bool
	for _, f := range flows {
		if f.Start < 0 || f.Start >= Day {
			t.Fatalf("flow at %v outside day 0", f.Start)
		}
		if f.Domain != "" {
			if _, ok := cdn.Lookup(f.Domain); !ok {
				t.Fatalf("flow to unknown domain %q", f.Domain)
			}
		}
		// Only catalog flows point at an entry; VPN, RTP and other-UDP
		// intents carry an opaque server instead.
		opaque := f.Proto == cdn.AppTCPOther || f.Proto == cdn.AppRTP || f.Proto == cdn.AppUDPOther
		if (f.Entry == nil) != opaque {
			t.Fatalf("%v intent to %q: entry %v", f.Proto, f.Domain, f.Entry)
		}
		if f.Entry != nil && f.Entry.Service != "" {
			haveTracked = true
		}
		if f.Down < 0 || f.Up < 0 {
			t.Fatal("negative volume")
		}
	}
	if !haveTracked {
		t.Fatal("no tracked-service flows in an active day")
	}
}

func TestGenerateDayAPMuchBusier(t *testing.T) {
	r := dist.NewRand(10)
	ap := &Customer{ID: 2, Country: mustCountry("CD"), Type: CommunityAP, Multiplex: 30}
	res := &Customer{ID: 3, Country: mustCountry("ES"), Type: Residential, Multiplex: 1}
	apFlows := GenerateDay(ap, 0, r.Fork("ap"))
	resFlows := GenerateDay(res, 0, r.Fork("res"))
	if len(apFlows) < 3*len(resFlows) {
		t.Fatalf("AP day %d flows vs EU residential %d — multiplexing missing", len(apFlows), len(resFlows))
	}
	var apDown int64
	for _, f := range apFlows {
		apDown += f.Down
	}
	if apDown < 200*MB {
		t.Fatalf("AP daily volume %d bytes too small", apDown)
	}
}

func TestGenerateDayBusinessHasVPN(t *testing.T) {
	r := dist.NewRand(11)
	c := &Customer{ID: 4, Country: mustCountry("DE"), Type: Business, Multiplex: 1}
	flows := GenerateDay(c, 0, r)
	var vpn int
	for _, f := range flows {
		if f.Proto == cdn.AppTCPOther {
			vpn++
			if f.Domain != "" {
				t.Fatal("VPN flow with a domain")
			}
			if !f.OpaqueServer.IsValid() {
				t.Fatal("VPN flow without server")
			}
		}
	}
	if vpn == 0 {
		t.Fatal("business customer with no VPN flows")
	}
}

func TestGenerateDayDeterminism(t *testing.T) {
	c := &Customer{ID: 5, Country: mustCountry("NG"), Type: Residential, Multiplex: 1}
	a := GenerateDay(c, 3, dist.NewRand(77))
	b := GenerateDay(c, 3, dist.NewRand(77))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Down != b[i].Down || a[i].Domain != b[i].Domain {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestDiurnalShapes(t *testing.T) {
	// Residential evening peak (Figure 4 Europe), AP morning peak
	// (Figure 4 Congo: 10:00 local), business office hours.
	if h := DiurnalFor(Residential).PeakHour(); h < 18 || h > 21 {
		t.Fatalf("residential peak at %d", h)
	}
	if h := DiurnalFor(CommunityAP).PeakHour(); h < 8 || h > 11 {
		t.Fatalf("AP peak at %d", h)
	}
	if h := DiurnalFor(Business).PeakHour(); h < 8 || h > 16 {
		t.Fatalf("business peak at %d", h)
	}
	// African night floor ≥ 40% of peak comes from the AP profile.
	ap := DiurnalFor(CommunityAP)
	if ap.Intensity(3) < 0.3 {
		t.Fatalf("AP night intensity %.2f too low for the Figure 4 floor", ap.Intensity(3))
	}
}

func TestStampsRespectTimezone(t *testing.T) {
	// A South African (UTC+2) business flow at local hour h appears at
	// UTC hour h-2; check the bulk lands in [06,16) UTC.
	r := dist.NewRand(12)
	c := &Customer{ID: 6, Country: mustCountry("ZA"), Type: Business, Multiplex: 1}
	flows := GenerateDay(c, 0, r)
	in, total := 0, 0
	for _, f := range flows {
		h := int(f.Start/time.Hour) % 24
		if h >= 5 && h < 17 {
			in++
		}
		total++
	}
	if total == 0 || float64(in)/float64(total) < 0.6 {
		t.Fatalf("only %d/%d business flows in UTC office hours", in, total)
	}
}

func TestCongoVolumeDominatesSpainStatistically(t *testing.T) {
	// Figure 2's mechanism check at the generator level: summing a few
	// hundred customer-days, Congolese subscriptions must move several
	// times the Spanish per-customer volume.
	r := dist.NewRand(99)
	perCustomer := func(code geo.CountryCode, typ CustomerType, mux int, n int) float64 {
		var total int64
		for i := 0; i < n; i++ {
			c := &Customer{ID: 9000 + i, Country: mustCountry(code), Type: typ, Multiplex: mux}
			for _, f := range GenerateDay(c, 0, r.ForkN(string(code), uint64(i))) {
				total += f.Down + f.Up
			}
		}
		return float64(total) / float64(n)
	}
	// Weighted by the archetype mixes of the two countries.
	cd := 0.52*perCustomer("CD", Residential, 1, 40) + 0.30*perCustomer("CD", CommunityAP, 20, 40)
	es := 0.50 * perCustomer("ES", Residential, 1, 40)
	if cd < 2*es {
		t.Fatalf("Congo per-customer volume %.0f not ≫ Spain's %.0f", cd, es)
	}
}

func TestUploadShareAfricaHigher(t *testing.T) {
	// Figure 5c's mechanism: chat-heavy African traffic uploads a larger
	// fraction of its volume than European traffic.
	r := dist.NewRand(101)
	share := func(code geo.CountryCode) float64 {
		var up, down int64
		for i := 0; i < 60; i++ {
			c := &Customer{ID: 8000 + i, Country: mustCountry(code), Type: Residential, Multiplex: 1}
			for _, f := range GenerateDay(c, 0, r.ForkN("up"+string(code), uint64(i))) {
				up += f.Up
				down += f.Down
			}
		}
		return float64(up) / float64(up+down)
	}
	cd, es := share("CD"), share("ES")
	if cd <= es {
		t.Fatalf("Congo upload share %.3f not above Spain's %.3f", cd, es)
	}
}
