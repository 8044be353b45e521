package errant

import (
	"strings"
	"testing"
	"time"

	"satwatch/internal/analytics"
	"satwatch/internal/netsim"
)

var cachedDS *analytics.Dataset

func testDataset(t *testing.T) *analytics.Dataset {
	t.Helper()
	if cachedDS == nil {
		out, err := netsim.Run(netsim.Config{Customers: 60, Days: 1, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		cachedDS = analytics.NewDataset(out, 1)
	}
	return cachedDS
}

func TestBuildProfiles(t *testing.T) {
	ds := testDataset(t)
	profiles := BuildProfiles(ds)
	if len(profiles) < 6 {
		t.Fatalf("only %d profiles", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Name()] {
			t.Fatalf("duplicate profile %s", p.Name())
		}
		seen[p.Name()] = true
		// GEO physics: one-way delay ≥ ~235 ms (half the ~470+ ms RTT).
		if p.OneWayDelay < 230*time.Millisecond {
			t.Errorf("%s one-way delay %v below GEO physics", p.Name(), p.OneWayDelay)
		}
		if p.OneWayDelay > 5*time.Second {
			t.Errorf("%s one-way delay %v absurd", p.Name(), p.OneWayDelay)
		}
		if p.Jitter < 0 {
			t.Errorf("%s negative jitter", p.Name())
		}
		if p.RateDown <= 0 {
			t.Errorf("%s no downlink rate", p.Name())
		}
		if p.Samples < 10 {
			t.Errorf("%s built from %d samples", p.Name(), p.Samples)
		}
	}
}

func TestCongoPeakWorseThanNight(t *testing.T) {
	ds := testDataset(t)
	profiles := BuildProfiles(ds)
	var night, peak *Profile
	for i := range profiles {
		p := &profiles[i]
		if p.Country == "CD" && p.Window == WindowNight {
			night = p
		}
		if p.Country == "CD" && p.Window == WindowPeak {
			peak = p
		}
	}
	if night == nil || peak == nil {
		t.Skip("not enough Congo samples at this scale")
	}
	if peak.OneWayDelay <= night.OneWayDelay {
		t.Errorf("Congo peak delay %v not above night %v", peak.OneWayDelay, night.OneWayDelay)
	}
}

func TestNetemExport(t *testing.T) {
	p := Profile{Country: "ES", Window: WindowNight,
		OneWayDelay: 280 * time.Millisecond, Jitter: 40 * time.Millisecond,
		Loss: 0.005, RateDown: 30e6}
	cmds := p.NetemCommands("eth0")
	if len(cmds) != 2 {
		t.Fatalf("%d commands", len(cmds))
	}
	if !strings.Contains(cmds[0], "delay 280ms 40ms") {
		t.Fatalf("netem delay missing: %q", cmds[0])
	}
	if !strings.Contains(cmds[0], "loss 0.50%") {
		t.Fatalf("netem loss missing: %q", cmds[0])
	}
	if !strings.Contains(cmds[1], "rate 30000kbit") {
		t.Fatalf("tbf rate missing: %q", cmds[1])
	}
	if p.Name() != "satcom-ES-night" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestRender(t *testing.T) {
	ds := testDataset(t)
	out := Render(BuildProfiles(ds), "eth1")
	if !strings.Contains(out, "tc qdisc add dev eth1") {
		t.Fatal("render lacks netem commands")
	}
	if !strings.Contains(out, "satcom-") {
		t.Fatal("render lacks profile names")
	}
}
