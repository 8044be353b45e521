package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"satwatch/internal/mac"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// liveDigest drives the first n day-0 intents of the population through
// one LiveWorker, the way the daemon's closed loop does (seq = i+1,
// Advance after every intent, Flush at the end), and hashes the flow and
// DNS records in emission order as the TSV bytes the tools write.
func liveDigest(t *testing.T, cfg Config, n int) string {
	t.Helper()
	lv, err := NewLiveSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []tstat.FlowRecord
	var dns []tstat.DNSRecord
	w := lv.NewWorker(
		func(r tstat.FlowRecord) { flows = append(flows, r) },
		func(r tstat.DNSRecord) { dns = append(dns, r) })
	src := workload.NewSource(lv.Customers(), lv.Root())
	for i := 0; i < n; i++ {
		fi := src.Next()
		if err := w.Process(fi, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
		w.Advance(fi.Start)
	}
	w.Flush()
	if len(flows) == 0 || len(dns) == 0 {
		t.Fatalf("live run emitted %d flows, %d DNS records", len(flows), len(dns))
	}
	h := sha256.New()
	if err := tstat.WriteFlows(h, flows); err != nil {
		t.Fatal(err)
	}
	if err := tstat.WriteDNS(h, dns); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLiveGolden pins the live record stream: the digests were taken
// before batch and live were made to build through one deployment, so any
// drift in RNG keying, dimensioning or model matching on the live side
// shows up here.
func TestLiveGolden(t *testing.T) {
	for _, tc := range []struct{ constellation, want string }{
		{"geo", "155f4d7eed514f471a9438e0a4e765e7bcf33a02495ef641307baadb79529c34"},
		{"leo", "b657831094c0a81677a4a2106d1508afcefa2119cec0d83ae4649bcd8a15eaba"},
	} {
		got := liveDigest(t, Config{Customers: 30, Seed: 11, Constellation: tc.constellation}, 3000)
		if got != tc.want {
			t.Errorf("%s: live record digest %s, want %s", tc.constellation, got, tc.want)
		}
	}
}

// TestLiveLoadsMatchBatchDayZero: the one-day profile the live simulator
// dimensions is what a one-day batch run dimensions, at any worker count.
func TestLiveLoadsMatchBatchDayZero(t *testing.T) {
	cfg := Config{Customers: 24, Seed: 21}
	lv, err := NewLiveSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := beamStats(lv.NewWorker(nil, nil).syn.loads, 24)
	if len(live) == 0 {
		t.Fatal("live simulator dimensioned no beams")
	}
	for _, par := range []int{1, 4} {
		cfg.Days, cfg.Parallelism = 1, par
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, out.Beams) {
			t.Errorf("parallelism %d: live beam loads differ from batch day 0\nlive  %+v\nbatch %+v", par, live, out.Beams)
		}
	}
}

// TestSwapScenarioKeepsLoads: beam loads are a function of (population,
// seed), not of the orbit, so a constellation swap swaps the models only —
// the worker keeps synthesizing over the very same load table.
func TestSwapScenarioKeepsLoads(t *testing.T) {
	lv, err := NewLiveSim(Config{Customers: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	w := lv.NewWorker(nil, nil)
	before := w.syn.loads
	if err := lv.SwapScenario("leo"); err != nil {
		t.Fatal(err)
	}
	if got := lv.ScenarioName(); got != "leo" {
		t.Errorf("ScenarioName() = %q after swap, want leo", got)
	}
	w.refresh()
	if w.syn.con.Static() {
		t.Error("worker still synthesizes over the static constellation after the swap")
	}
	if &before[0] != &w.syn.loads[0] {
		t.Error("constellation swap rebuilt the beam loads")
	}
	if got, want := w.syn.mac.Params(), mac.LEOParams(); got != want {
		t.Errorf("swap target MAC params = %+v, want the orbit-matched defaults %+v", got, want)
	}
}

// TestLiveSimHonoursMACOverride regresses the drift the separate live
// setup had: it re-derived MAC params from the constellation name and
// dropped Config.MAC, which batch honours.
func TestLiveSimHonoursMACOverride(t *testing.T) {
	lv, err := NewLiveSim(Config{Customers: 10, Seed: 3, MAC: mac.Params{Seed: 77}})
	if err != nil {
		t.Fatal(err)
	}
	want := mac.DefaultParams()
	want.Seed = 77
	if got := lv.NewWorker(nil, nil).syn.mac.Params(); got != want {
		t.Errorf("live MAC params = %+v, want %+v", got, want)
	}
}
