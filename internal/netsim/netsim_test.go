package netsim

import (
	"testing"
	"time"

	"satwatch/internal/geo"
	"satwatch/internal/tstat"
)

// run executes a small deterministic simulation, cached across tests.
var cachedOut *Output

func smallRun(t *testing.T) *Output {
	t.Helper()
	if cachedOut != nil {
		return cachedOut
	}
	out, err := Run(Config{Customers: 80, Days: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cachedOut = out
	return out
}

func TestRunProducesFlowsAndDNS(t *testing.T) {
	out := smallRun(t)
	if len(out.Flows) < 1000 {
		t.Fatalf("only %d flows", len(out.Flows))
	}
	if len(out.DNS) < 100 {
		t.Fatalf("only %d DNS transactions", len(out.DNS))
	}
	if len(out.Meta) < 70 {
		t.Fatalf("metadata for %d customers", len(out.Meta))
	}
	if len(out.Beams) != len(geo.Beams()) {
		t.Fatalf("%d beam stats", len(out.Beams))
	}
}

func TestClientsAreAnonymized(t *testing.T) {
	out := smallRun(t)
	for i := range out.Flows {
		f := &out.Flows[i]
		// Raw CPE addresses live in 10.16.0.0/12; anonymized ones must
		// not (prefix-preservation maps the 10/8 block elsewhere
		// deterministically, but never identically for our keys).
		if _, ok := out.Meta[f.Client]; !ok {
			t.Fatalf("flow client %v has no metadata — anonymization/metadata mismatch", f.Client)
		}
	}
}

func TestCountryPrefixRecovery(t *testing.T) {
	out := smallRun(t)
	for addr, meta := range out.Meta {
		found := false
		for p, code := range out.CountryPrefixes {
			if p.Contains(addr) {
				found = true
				if code != meta.Country {
					t.Fatalf("prefix says %s, metadata says %s", code, meta.Country)
				}
			}
		}
		if !found {
			t.Fatalf("no prefix covers %v", addr)
		}
	}
}

func TestSatRTTFloor(t *testing.T) {
	out := smallRun(t)
	n := 0
	for i := range out.Flows {
		f := &out.Flows[i]
		if f.SatRTT == 0 {
			continue
		}
		n++
		if f.SatRTT < 470*time.Millisecond {
			t.Fatalf("satellite RTT %v below the GEO propagation floor", f.SatRTT)
		}
	}
	if n == 0 {
		t.Fatal("no satellite RTT samples at all")
	}
}

func TestFlowsCarryDomainsAndRTT(t *testing.T) {
	out := smallRun(t)
	withDomain, withRTT := 0, 0
	for i := range out.Flows {
		f := &out.Flows[i]
		if f.Domain != "" {
			withDomain++
		}
		if f.GroundRTT.Samples > 0 {
			withRTT++
		}
	}
	if frac := float64(withDomain) / float64(len(out.Flows)); frac < 0.5 {
		t.Fatalf("only %.2f of flows carry a domain", frac)
	}
	if frac := float64(withRTT) / float64(len(out.Flows)); frac < 0.5 {
		t.Fatalf("only %.2f of flows have ground RTT samples", frac)
	}
}

func TestProtocolMix(t *testing.T) {
	out := smallRun(t)
	vol := map[tstat.Protocol]int64{}
	var total int64
	for i := range out.Flows {
		f := &out.Flows[i]
		vol[f.Proto] += f.BytesUp + f.BytesDown
		total += f.BytesUp + f.BytesDown
	}
	share := func(p tstat.Protocol) float64 { return 100 * float64(vol[p]) / float64(total) }
	// Loose Table 1 bands: shapes, not absolutes.
	if s := share(tstat.ProtoHTTPS); s < 35 || s > 70 {
		t.Fatalf("HTTPS share %.1f%% outside [35,70]", s)
	}
	if s := share(tstat.ProtoQUIC); s < 10 || s > 35 {
		t.Fatalf("QUIC share %.1f%% outside [10,35]", s)
	}
	if s := share(tstat.ProtoHTTP); s < 3 || s > 25 {
		t.Fatalf("HTTP share %.1f%% outside [3,25]", s)
	}
	if s := share(tstat.ProtoDNS); s > 0.5 {
		t.Fatalf("DNS share %.2f%% above Table 1's <0.1%% scale", s)
	}
	if vol[tstat.ProtoRTP] == 0 || vol[tstat.ProtoTCPOther] == 0 || vol[tstat.ProtoUDPOther] == 0 {
		t.Fatal("missing protocol classes in the mix")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(Config{Customers: 25, Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Customers: 25, Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != len(b.Flows) || len(a.DNS) != len(b.DNS) {
		t.Fatalf("sizes differ: %d/%d flows, %d/%d dns", len(a.Flows), len(b.Flows), len(a.DNS), len(b.DNS))
	}
	for i := range a.Flows {
		x, y := a.Flows[i], b.Flows[i]
		if x.Client != y.Client || x.Start != y.Start || x.BytesDown != y.BytesDown || x.SatRTT != y.SatRTT {
			t.Fatalf("flow %d differs between identical runs", i)
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a, _ := Run(Config{Customers: 25, Days: 1, Seed: 5})
	b, _ := Run(Config{Customers: 25, Days: 1, Seed: 6})
	if len(a.Flows) == len(b.Flows) && len(a.DNS) == len(b.DNS) {
		same := true
		for i := range a.Flows {
			if a.Flows[i].Start != b.Flows[i].Start {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestBeamStatsSane(t *testing.T) {
	out := smallRun(t)
	for _, b := range out.Beams {
		if b.PeakUtil <= 0 || b.PeakUtil > 1.05 {
			t.Fatalf("beam %d peak util %v", b.Beam, b.PeakUtil)
		}
	}
}

func TestAblationPEPReducesCongestedRTT(t *testing.T) {
	base, err := Run(Config{Customers: 60, Days: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	nopep, err := Run(Config{Customers: 60, Days: 1, Seed: 21, DisablePEP: true})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(out *Output) time.Duration {
		var sum time.Duration
		n := 0
		for i := range out.Flows {
			f := &out.Flows[i]
			if f.SatRTT > 0 && out.Meta[f.Client].Country == "CD" {
				sum += f.SatRTT
				n++
			}
		}
		if n == 0 {
			t.Fatal("no Congolese TLS flows")
		}
		return sum / time.Duration(n)
	}
	if m0, m1 := mean(base), mean(nopep); m1 >= m0 {
		t.Fatalf("disabling the PEP did not reduce Congo's satellite RTT (%v → %v)", m0, m1)
	}
}

func TestAblationAfricanGroundStation(t *testing.T) {
	base, err := Run(Config{Customers: 60, Days: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run(Config{Customers: 60, Days: 1, Seed: 22, AfricanGroundStation: true})
	if err != nil {
		t.Fatal(err)
	}
	// African customers' worst-case ground RTTs must collapse.
	p95 := func(out *Output) float64 {
		var xs []float64
		for i := range out.Flows {
			f := &out.Flows[i]
			meta := out.Meta[f.Client]
			if f.GroundRTT.Samples > 0 && (meta.Country == "CD" || meta.Country == "NG") {
				xs = append(xs, f.GroundRTT.Avg.Seconds())
			}
		}
		if len(xs) == 0 {
			t.Fatal("no African ground RTT samples")
		}
		// crude p95
		max := 0.0
		over := 0
		for _, x := range xs {
			if x > 0.25 {
				over++
			}
			if x > max {
				max = x
			}
		}
		return float64(over) / float64(len(xs))
	}
	if b, l := p95(base), p95(local); l >= b {
		t.Fatalf("African gateway did not reduce the >250ms share (%.3f → %.3f)", b, l)
	}
}
