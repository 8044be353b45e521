package pep

import (
	"testing"
	"time"

	"satwatch/internal/faults"
	"satwatch/internal/linkemu"
	"satwatch/internal/tunnel"
)

func loadTestLink() linkemu.Link {
	return linkemu.Link{Delay: 20 * time.Millisecond, Jitter: 4 * time.Millisecond, Loss: 0.005, RateBps: 0}
}

func loadTestTunnel() tunnel.Config {
	return tunnel.Config{RTO: 120 * time.Millisecond, Window: 64, MaxPayload: 1200}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("8k:0.6,64k:0.3,256k:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Bytes != 8<<10 || mix[2].Bytes != 256<<10 {
		t.Fatalf("mix %+v", mix)
	}
	if _, err := ParseMix("1m"); err != nil {
		t.Fatalf("bare size rejected: %v", err)
	}
	for _, bad := range []string{"", "x:1", "8k:-1", "0:1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("mix %q accepted", bad)
		}
	}
}

func TestPickSizeCoversMix(t *testing.T) {
	mix := normalizeMix([]SizeWeight{{100, 1}, {200, 1}})
	if pickSize(mix, 0.1) != 100 || pickSize(mix, 0.9) != 200 || pickSize(mix, 1.0) != 200 {
		t.Fatal("weighted size selection broken")
	}
}

// TestRunLoadDrainsClean is the harness's own leak check: a reduced run
// over a scaled-down link must finish with zero flow errors and empty
// stream tables on both ends.
func TestRunLoadDrainsClean(t *testing.T) {
	flows := 120
	if testing.Short() {
		flows = 30
	}
	rep, err := RunLoad(LoadConfig{
		Flows:       flows,
		Concurrency: 40,
		Mix:         []SizeWeight{{4 << 10, 0.7}, {32 << 10, 0.3}},
		Link:        loadTestLink(),
		Tunnel:      loadTestTunnel(),
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d flow errors: %s", rep.Errors, rep)
	}
	if rep.Leaked() != 0 {
		t.Fatalf("leaked streams after drain: %s", rep)
	}
	if rep.Flows != flows || rep.FlowsPerSecond <= 0 || rep.ObjectsPerFlow <= 0 {
		t.Fatalf("implausible report: %s", rep)
	}
	if rep.HandshakeP50 > 20*time.Millisecond {
		t.Fatalf("handshake p50 %v — split-TCP acceleration broken under load", rep.HandshakeP50)
	}
	// Transfers cross the 20 ms link twice at minimum.
	if rep.TransferP50 < 20*time.Millisecond {
		t.Fatalf("transfer p50 %v below one link RTT — measurements broken", rep.TransferP50)
	}
}

// TestRunLoadWithFaults plays a compressed fault schedule into the live
// link; flows may slow down but must still complete and drain.
func TestRunLoadWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected load run skipped in -short mode")
	}
	// A deterministic schedule active from t=0 so even a sub-second run
	// is guaranteed to hit it: a moderate rain front plus a gateway
	// detour over the whole window.
	sched := &faults.Schedule{Name: "loadtest", Events: []faults.Event{
		{Kind: faults.RainFront, Beam: -1, Start: 0, End: 24 * time.Hour, Peak: 0.4},
		{Kind: faults.GatewaySwitch, Beam: -1, Start: 0, End: 24 * time.Hour, RTTStep: 20 * time.Millisecond},
	}}
	rep, err := RunLoad(LoadConfig{
		Flows:       40,
		Concurrency: 20,
		Mix:         []SizeWeight{{4 << 10, 1}},
		Link:        loadTestLink(),
		Tunnel:      loadTestTunnel(),
		Seed:        8,
		Faults:      sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaked() != 0 {
		t.Fatalf("leaked streams after faulted run: %s", rep)
	}
	if rep.FaultTicks == 0 {
		t.Fatal("fault injector never applied a degraded condition")
	}
}
