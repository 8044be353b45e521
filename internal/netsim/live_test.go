package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"satwatch/internal/mac"
	"satwatch/internal/shaper"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// liveRecords drives the first n day-0 intents of the population through
// one LiveWorker, the way the daemon's closed loop does (seq = i+1,
// Advance after every intent, Flush at the end), and returns the flow and
// DNS records in emission order.
func liveRecords(t *testing.T, cfg Config, n int) ([]tstat.FlowRecord, []tstat.DNSRecord) {
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
	return flows, dns
}

// recordDigest hashes flow and DNS records as the TSV bytes the tools
// write.
func recordDigest(t *testing.T, flows []tstat.FlowRecord, dns []tstat.DNSRecord) string {
	t.Helper()
	h := sha256.New()
	if err := tstat.WriteFlows(h, flows); err != nil {
		t.Fatal(err)
	}
	if err := tstat.WriteDNS(h, dns); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveDigest hashes liveRecords in emission order.
func liveDigest(t *testing.T, cfg Config, n int) string {
	t.Helper()
	flows, dns := liveRecords(t, cfg, n)
	return recordDigest(t, flows, dns)
}

// TestLiveGolden pins the live record stream in emission order, so any
// drift in RNG keying, dimensioning or model matching on the live side
// shows up here. Re-pinned once, when the tracker stopped taking its clock
// from event timestamps (records now leave when the driver's clock passes
// flow end plus linger or idle timeout): the order moved, the record set
// (TestLiveRecordSet) did not.
func TestLiveGolden(t *testing.T) {
	for _, tc := range []struct{ constellation, want string }{
		{"geo", "1182d35609875cbdb444db3254e8b48d6c1c97d1e9445d8ddf30302436dbf688"},
		{"leo", "c93932e7898540f3e1fdaef8a2ce5d0f24b1ce680e1658cbdd5c07a9d9ebcb30"},
	} {
		got := liveDigest(t, Config{Customers: 30, Seed: 11, Constellation: tc.constellation}, 3000)
		if got != tc.want {
			t.Errorf("%s: live record digest %s, want %s", tc.constellation, got, tc.want)
		}
	}
}

// TestLiveRecordSet pins what the live driver logs independently of when
// it logs it: the records, sorted into the canonical log order before
// hashing. TestLiveGolden also pins the emission order, which moves with
// the tracker's eviction timing; this set must not.
func TestLiveRecordSet(t *testing.T) {
	for _, tc := range []struct {
		constellation string
		n             int
		want          string
	}{
		{"geo", 3000, "69e18c11109f29fa69299824c1ff6583ad4e38ccd02d88be4e0b860cc98b224e"},
		{"leo", 3000, "3ea76d75d979501ca2438436d20756708001c1f362db641f4ff9e94db9b623bb"},
		{"geo", 20000, "76b67796397aef286d688f4546c50ac236466e56b4885f1e02ac434885f0052d"},
		{"leo", 20000, "8017eafd92350d1c7f40eb0c554affa6a56b70d09ec5ab398b3e85b792fcd19e"},
	} {
		flows, dns := liveRecords(t, Config{Customers: 30, Seed: 11, Constellation: tc.constellation}, tc.n)
		tstat.SortFlows(flows)
		tstat.SortDNS(dns)
		if got := recordDigest(t, flows, dns); got != tc.want {
			t.Errorf("%s n=%d: sorted live record digest %s, want %s", tc.constellation, tc.n, got, tc.want)
		}
	}
}

// TestLiveLogsFlowsWhenTheyEnd: the probe logs a flow when it ends (§2.2),
// on the driver's clock. Every record a sweep emits has ended by the clock
// of the Advance that emitted it, and no record is emitted later than its
// idle timeout allows: a flow still active after Advance(T) must not have
// been due at T − 1 s (the sweep runs once per simulated second).
func TestLiveLogsFlowsWhenTheyEnd(t *testing.T) {
	lv, err := NewLiveSim(Config{Customers: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// clock is the driver's clock at the callback; settled the clock of
	// the last completed Advance, after which the emitted flow was active.
	var clock, settled time.Duration
	flushing := false
	var records, early, overdue int
	var firstEarly, firstOverdue string
	w := lv.NewWorker(func(r tstat.FlowRecord) {
		records++
		if !flushing && r.End > clock {
			if early++; early == 1 {
				firstEarly = fmt.Sprintf("%v flow ending at %v logged at clock %v", r.Proto, r.End, clock)
			}
		}
		timeout := time.Minute // the tracker's UDP idle timeout
		switch r.Proto {
		case tstat.ProtoHTTPS, tstat.ProtoHTTP, tstat.ProtoTCPOther:
			timeout = 5 * time.Minute // its TCP idle timeout
		}
		if r.End+timeout <= settled-time.Second {
			if overdue++; overdue == 1 {
				firstOverdue = fmt.Sprintf("%v flow ending at %v still active at clock %v", r.Proto, r.End, settled)
			}
		}
	}, func(tstat.DNSRecord) {})
	src := workload.NewSource(lv.Customers(), lv.Root())
	for i := 0; i < 20000; i++ {
		fi := src.Next()
		clock = max(clock, fi.Start)
		if err := w.Process(fi, uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
		w.Advance(fi.Start)
		settled = clock
	}
	flushing = true
	w.Flush()
	if early > 0 {
		t.Errorf("%d of %d records logged before the flow ended; first: %s", early, records, firstEarly)
	}
	if overdue > 0 {
		t.Errorf("%d of %d records logged after their idle timeout; first: %s", overdue, records, firstOverdue)
	}
}

// TestReusedPortLandsOnFreshFlow: once a customer's allocator wraps, a
// reissued port must start a new flow even when the driver never advanced
// the tracker in between (an idle live shard; a batch worker inside one
// customer): the synthesizer brings the probe to the intent's start first.
func TestReusedPortLandsOnFreshFlow(t *testing.T) {
	lv, err := NewLiveSim(Config{Customers: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var flows []tstat.FlowRecord
	w := lv.NewWorker(func(r tstat.FlowRecord) { flows = append(flows, r) }, func(tstat.DNSRecord) {})
	fi := *workload.NewSource(lv.Customers(), lv.Root()).Next()
	if err := w.Process(&fi, 1, nil); err != nil {
		t.Fatal(err)
	}
	pa := w.syn.ports[fi.Customer.ID]
	first := pa.busy[1024-1024]
	pa.next = 1024 // wrapped
	again := fi
	again.Start = first + portReuseGuard + time.Second
	if err := w.Process(&again, 1, nil); err != nil { // same seq: same server
		t.Fatal(err)
	}
	w.Flush()
	var onPort []tstat.FlowRecord
	for _, r := range flows {
		if r.CPort == 1024 {
			onPort = append(onPort, r)
		}
	}
	if len(onPort) != 2 || onPort[0].End > first || onPort[1].Start < again.Start {
		t.Fatalf("port 1024 carried %d records %+v, want the first flow and a fresh one from %v", len(onPort), onPort, again.Start)
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
	loads := lv.NewWorker(nil, nil).syn.loads
	live := beamStats(loads, 24)
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
		// The whole load table, not only the peaks Output.Beams keeps: the
		// hourly bytes and setups, the capacity and PEP peak dimensioned from
		// them, and the beam itself. Only wrap differs by design.
		if len(loads) != len(out.dep.loads) {
			t.Fatalf("parallelism %d: live load table has %d slots, batch %d", par, len(loads), len(out.dep.loads))
		}
		for id, bl := range loads {
			b := out.dep.loads[id]
			if (bl == nil) != (b == nil) {
				t.Errorf("parallelism %d beam %d: live load %v, batch %v", par, id, bl, b)
				continue
			}
			if bl == nil {
				continue
			}
			want := *bl
			want.wrap = b.wrap
			if !reflect.DeepEqual(want, *b) {
				t.Errorf("parallelism %d beam %d: live load differs from batch day 0\nlive  %+v\nbatch %+v", par, id, *bl, *b)
			}
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

// TestClassifyMemo: the synthesizer's memo answers what
// shaper.ClassifyFlow answers for every FQDN a one-day population draws, at
// the ports whose rules differ, and a scenario swap starts a fresh memo.
func TestClassifyMemo(t *testing.T) {
	lv, err := NewLiveSim(Config{Customers: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := lv.NewWorker(nil, nil)
	if err := w.syn.init(); err != nil {
		t.Fatal(err)
	}
	domains := map[string]bool{"": true}
	for _, c := range lv.Customers() {
		for _, fi := range workload.GenerateDay(c, 0, lv.Root().ForkN("day", uint64(c.ID)*1024)) {
			domains[fi.Domain] = true
		}
	}
	if len(domains) < 100 {
		t.Fatalf("population drew only %d distinct domains", len(domains))
	}
	for d := range domains {
		for _, port := range []uint16{53, 80, 123, 443, 1194} {
			want := shaper.ClassifyFlow(d, port)
			for pass := 0; pass < 2; pass++ { // fill, then read the memo
				if got := w.syn.classify(d, port); got != want {
					t.Fatalf("classify(%q, %d) = %v on pass %d, want %v", d, port, got, pass, want)
				}
			}
		}
	}
	if err := lv.SwapScenario("leo"); err != nil {
		t.Fatal(err)
	}
	w.refresh()
	if len(w.syn.classes) != 0 {
		t.Errorf("worker kept a %d-entry memo across a scenario swap", len(w.syn.classes))
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

// raceBuild reports whether the test binary was built with -race, which
// drops sync.Pool puts at random: the pools then allocate afresh.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestLiveWorkerAllocationBudget holds what a warm LiveWorker allocates
// per intent, Process plus Advance, the way the daemon's synth stage
// calls them. It measures 0.089 objects (geo, 30 customers, seed 11),
// the worker re-seeding one random stream in place; it read 1.09 while
// each intent forked a stream of its own, 8.75 while that stream was
// three objects, and 6.75 while every flow allocated its tracker state
// and encoded its messages into fresh buffers. A race build reads 0.25 to
// 0.27: the race detector drops sync.Pool puts at random, and the service
// classifier's regexps then allocate matchers.
func TestLiveWorkerAllocationBudget(t *testing.T) {
	budget := 0.15
	if raceBuild() {
		budget += 0.2
	}
	lv, err := NewLiveSim(Config{Customers: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	w := lv.NewWorker(func(tstat.FlowRecord) {}, func(tstat.DNSRecord) {})
	src := workload.NewSource(lv.Customers(), lv.Root())
	intents := make([]workload.FlowIntent, 7000)
	for i := range intents {
		intents[i] = *src.Next()
	}
	process := func(i int) {
		if err := w.Process(&intents[i], uint64(i+1), nil); err != nil {
			t.Fatal(err)
		}
		w.Advance(intents[i].Start)
	}
	const warm = 2000 // tracker tables and memos fill up
	for i := 0; i < warm; i++ {
		process(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < len(intents); i++ {
		process(i)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(len(intents)-warm)
	t.Logf("warm LiveWorker: %.3f objects per intent", got)
	if got > budget {
		t.Errorf("warm LiveWorker allocates %.3f objects per intent, budget %.2f", got, budget)
	}
}
