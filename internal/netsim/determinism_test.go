package netsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"satwatch/internal/faults"
	"satwatch/internal/trace"
	"satwatch/internal/tstat"
)

// serialize renders a run's outputs exactly as the CLIs write them, so
// comparisons below are over the bytes users actually get.
func serialize(t *testing.T, out *Output) (flows, dns, meta []byte) {
	t.Helper()
	var fb, db, mb bytes.Buffer
	if err := tstat.WriteFlows(&fb, out.Flows); err != nil {
		t.Fatal(err)
	}
	if err := tstat.WriteDNS(&db, out.DNS); err != nil {
		t.Fatal(err)
	}
	if err := WriteMeta(&mb, out.Meta); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), db.Bytes(), mb.Bytes()
}

// TestBeamsOrderDeterministic regresses the old map-iteration bug: Beams
// must come out identical (and ordered by ID) on every equal-seed run.
func TestBeamsOrderDeterministic(t *testing.T) {
	a, err := Run(Config{Customers: 30, Days: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Customers: 30, Days: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Beams, b.Beams) {
		t.Fatal("Beams differ between identical runs")
	}
	for i := 1; i < len(a.Beams); i++ {
		if a.Beams[i-1].Beam >= a.Beams[i].Beam {
			t.Fatalf("Beams not sorted by ID: %d before %d", a.Beams[i-1].Beam, a.Beams[i].Beam)
		}
	}
}

// TestParallelismInvariance is the PR's headline contract: the same seed
// must produce byte-identical outputs (flow log, DNS log, metadata, and
// flow traces) at any worker count.
func TestParallelismInvariance(t *testing.T) {
	type result struct {
		flows, dns, meta, traces []byte
	}
	runAt := func(par int) result {
		var tb bytes.Buffer
		tr := trace.New(&tb, 1)
		out, err := Run(Config{Customers: 40, Days: 1, Seed: 99, Parallelism: par, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		f, d, m := serialize(t, out)
		return result{flows: f, dns: d, meta: m, traces: tb.Bytes()}
	}
	base := runAt(1)
	if len(base.flows) == 0 || len(base.traces) == 0 {
		t.Fatal("empty serialized output at parallelism 1")
	}
	for _, par := range []int{2, 8} {
		got := runAt(par)
		if !bytes.Equal(base.flows, got.flows) {
			t.Errorf("flow log differs between parallelism 1 and %d", par)
		}
		if !bytes.Equal(base.dns, got.dns) {
			t.Errorf("DNS log differs between parallelism 1 and %d", par)
		}
		if !bytes.Equal(base.meta, got.meta) {
			t.Errorf("metadata differs between parallelism 1 and %d", par)
		}
		if !bytes.Equal(base.traces, got.traces) {
			t.Errorf("flow traces differ between parallelism 1 and %d", par)
		}
	}
}

// batchGolden pins {geo, leo} × {clear, stress} × {20, 60} customers, one
// day, seed 42. The digests were not generated by this test: they are the
// "outputs" of the regression baseline the repo carried until PR 16, copied
// verbatim (its one-worker and all-workers rows were equal); CHANGES.md
// PR 16 has the jq line that re-derives the table from git history. A
// changed digest is a behaviour change and is argued as one — never
// regenerate these to make a refactor pass. The beams.tsv digests were
// pinned when that log was added, from its first writer; beam loads
// depend on the population alone, so the four cases of one size share
// theirs.
var batchGolden = []struct {
	name, constellation, faults string
	customers                   int
	want                        map[string]string
}{
	{"small-clear", "", "", 20, map[string]string{
		"dns.tsv":      "sha256:2de43e89fca81d40a3567315772ca17f488ecb89555cb89e31416d4bf9412382",
		"flows.tsv":    "sha256:87788cce791f38da20d8605304177562e9eb29f182e6967d25778a1ed9d27479",
		"meta.tsv":     "sha256:3e35dc27775537634d5c7ca784d8395cf12377754f5caa9801610ed95280f7c4",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:643fe089b18badeeddb1d14017c30e158c01e0f3554f3dbd775e46b32eada483",
	}},
	{"small-stress", "", "stress", 20, map[string]string{
		"dns.tsv":      "sha256:166e5adc6a5732f9ec445fdde8cc0dc70ac1f0d2c262e6fa1e7dfabaa2f62908",
		"flows.tsv":    "sha256:77ce912c4e4e29e53f4590bb0f58c45f20c875dbb37565b6511759b2b96f63ad",
		"meta.tsv":     "sha256:3e35dc27775537634d5c7ca784d8395cf12377754f5caa9801610ed95280f7c4",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:643fe089b18badeeddb1d14017c30e158c01e0f3554f3dbd775e46b32eada483",
	}},
	{"small-leo-clear", "leo", "", 20, map[string]string{
		"dns.tsv":      "sha256:790cb4ede24d71f393544467b97d3879b11bc2c980193b8fc32520cbc15a1c1b",
		"flows.tsv":    "sha256:c323811b28d2dd15065766ec29dea20b5053c65a7d3625ea381e90a44b3555d2",
		"meta.tsv":     "sha256:3e35dc27775537634d5c7ca784d8395cf12377754f5caa9801610ed95280f7c4",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:643fe089b18badeeddb1d14017c30e158c01e0f3554f3dbd775e46b32eada483",
	}},
	{"small-leo-stress", "leo", "stress", 20, map[string]string{
		"dns.tsv":      "sha256:8dc1b397597fca745491f8f26f88e93e07af987a8600ef357055545f5308767b",
		"flows.tsv":    "sha256:a67367c1892e40f311a66fa7ca1f4f55b7b41c4dd2e4ad1367731366a1f4de7b",
		"meta.tsv":     "sha256:3e35dc27775537634d5c7ca784d8395cf12377754f5caa9801610ed95280f7c4",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:643fe089b18badeeddb1d14017c30e158c01e0f3554f3dbd775e46b32eada483",
	}},
	{"medium-clear", "", "", 60, map[string]string{
		"dns.tsv":      "sha256:7569e89877343bee9a28f164dfe6ea452255289a995e23a3e5f152d2815d0dae",
		"flows.tsv":    "sha256:15dd76273e18c8e5082904332c6835b8c131227796e976c6e7f4fc5617e7bc04",
		"meta.tsv":     "sha256:d56c6e1c44e23ab3c4b515202d09ce580c256cd7b9869f391107c4f50327b9a7",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:cd43eb96f677e6b5160c36984fc1a8383f02203afe930cf6b689dbeac02b6e9f",
	}},
	{"medium-stress", "", "stress", 60, map[string]string{
		"dns.tsv":      "sha256:2bb8c921555ed5b599cd9cc5500a77f9d90ee401a94f27eaf2ee9f90819b361d",
		"flows.tsv":    "sha256:16ab4ba16589a3fdfb9bc7f14952d8658a66f8046418345b7bcf0bbb47e14fee",
		"meta.tsv":     "sha256:d56c6e1c44e23ab3c4b515202d09ce580c256cd7b9869f391107c4f50327b9a7",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:cd43eb96f677e6b5160c36984fc1a8383f02203afe930cf6b689dbeac02b6e9f",
	}},
	{"medium-leo-clear", "leo", "", 60, map[string]string{
		"dns.tsv":      "sha256:a8a62ce1ebab62488a6d6e430ec348157e4f58395aec915efbbaf8d33de139e6",
		"flows.tsv":    "sha256:d35c8fa8bf429d0ce754274fddb519099bca67d6d6eac1a8491c9922a764d6ca",
		"meta.tsv":     "sha256:d56c6e1c44e23ab3c4b515202d09ce580c256cd7b9869f391107c4f50327b9a7",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:cd43eb96f677e6b5160c36984fc1a8383f02203afe930cf6b689dbeac02b6e9f",
	}},
	{"medium-leo-stress", "leo", "stress", 60, map[string]string{
		"dns.tsv":      "sha256:2099e928bfd721523febd31196e9cca8bd5b94cdc66373c47956354165317637",
		"flows.tsv":    "sha256:c322065a90f87c9229f77ea32c7c54039aa5a730d3877c78b22b402155dff6f8",
		"meta.tsv":     "sha256:d56c6e1c44e23ab3c4b515202d09ce580c256cd7b9869f391107c4f50327b9a7",
		"prefixes.tsv": "sha256:583e35f0814838eae5f6e273a2dc5ad5431bea1ac3a70618f02c9b57185e66f9",
		"beams.tsv":    "sha256:cd43eb96f677e6b5160c36984fc1a8383f02203afe930cf6b689dbeac02b6e9f",
	}},
}

// TestBatchGolden pins the batch outputs byte for byte, as the files the
// tools write, at one worker and at four (explicit, so the parallel run is
// parallel on any box).
func TestBatchGolden(t *testing.T) {
	stress, err := faults.Preset("stress", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range batchGolden {
		if len(tc.want) != len(LogNames) {
			t.Fatalf("%s: %d golden digests for %d logs", tc.name, len(tc.want), len(LogNames))
		}
		for _, par := range []int{1, 4} {
			cfg := Config{Customers: tc.customers, Days: 1, Seed: 42, Parallelism: par, Constellation: tc.constellation}
			if tc.faults != "" {
				cfg.Faults = stress
			}
			out, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s p%d: %v", tc.name, par, err)
			}
			for _, log := range LogNames {
				h := sha256.New()
				if err := out.WriteLog(log, h); err != nil {
					t.Fatal(err)
				}
				if got := "sha256:" + hex.EncodeToString(h.Sum(nil)); got != tc.want[log] {
					t.Errorf("%s p%d %s: digest %s, want %s", tc.name, par, log, got, tc.want[log])
				}
			}
		}
	}
}

// TestIntentCacheSpillEquivalence: a budget too small to cache anything
// must still produce byte-identical output — the cache is purely a
// performance lever.
func TestIntentCacheSpillEquivalence(t *testing.T) {
	cached, err := Run(Config{Customers: 30, Days: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.IntentCacheHits == 0 {
		t.Fatal("default budget cached nothing on a laptop-scale run")
	}
	spilled, err := run(context.Background(), Config{Customers: 30, Days: 1, Seed: 41}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.IntentCacheHits != 0 {
		t.Fatal("disabled cache still reported hits")
	}
	cf, cd, cm := serialize(t, cached)
	sf, sd, sm := serialize(t, spilled)
	if !bytes.Equal(cf, sf) || !bytes.Equal(cd, sd) || !bytes.Equal(cm, sm) {
		t.Fatal("intent-cache spills changed the output")
	}
}

// TestIntentCacheChargesWhatItHolds: pass A caches every customer-day in
// an exact-size slice, so the budget it charges, Σ MemBytes over the
// cached intents, is what the cache holds. A budget of exactly that sum
// caches every slot; one byte less spills one.
func TestIntentCacheChargesWhatItHolds(t *testing.T) {
	cfg := Config{Customers: 40, Days: 2, Seed: 5}.withDefaults()
	cache := func(budget int64, workers int) []passAShard {
		t.Helper()
		dep, err := newDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dep.dimension(context.Background(), cfg, workers, false, budget)
	}
	var held int64
	slots := 0
	for _, sh := range cache(intentCacheBytes, 3) {
		if sh.spills != 0 {
			t.Fatalf("default budget spilled %d customer-days", sh.spills)
		}
		for _, day := range sh.cache {
			if len(day) != cap(day) {
				t.Fatalf("cached day holds %d intents in %d slots", len(day), cap(day))
			}
			for i := range day {
				held += int64(day[i].MemBytes())
			}
			slots++
		}
	}
	if slots != cfg.Customers*cfg.Days {
		t.Fatalf("%d cached customer-days, want %d", slots, cfg.Customers*cfg.Days)
	}
	for _, tc := range []struct {
		budget int64
		spills int
	}{{held, 0}, {held - 1, 1}} {
		if got := cache(tc.budget, 1)[0].spills; got != tc.spills {
			t.Errorf("budget %d of %d held bytes: %d spills, want %d", tc.budget, held, got, tc.spills)
		}
	}
}

// TestEffectiveDefaults pins the documented effective defaults — in
// particular Days, which used to silently default to 1 while
// DefaultConfig advertised 2.
func TestEffectiveDefaults(t *testing.T) {
	eff := Config{}.withDefaults()
	def := DefaultConfig()
	if eff.Days != def.Days {
		t.Fatalf("effective Days default %d != DefaultConfig's %d", eff.Days, def.Days)
	}
	if eff.Customers != def.Customers {
		t.Fatalf("effective Customers default %d != DefaultConfig's %d", eff.Customers, def.Customers)
	}
	if eff.MAC.SlotsPerFrame == 0 || eff.MAC.FrameDuration == 0 {
		t.Fatal("effective MAC params not filled in")
	}
}

// TestNextPortIssuesFullRange regresses the ephemeral-port allocator: the
// first issued port is 1024 (it used to be skipped), the walk is
// sequential, and a wrap never reissues a port whose flow the probe could
// still be tracking.
func TestNextPortIssuesFullRange(t *testing.T) {
	s := &synthesizer{ports: map[int]*portAlloc{}}
	if p := s.nextPort(1, 0); p != 1024 {
		t.Fatalf("first port = %d, want 1024", p)
	}
	if p := s.nextPort(1, 0); p != 1025 {
		t.Fatalf("second port = %d, want 1025", p)
	}
	// Walk to the wrap point: the full range through 65535 is issued.
	var last uint16
	for i := 0; i < 65535-1025; i++ {
		last = s.nextPort(1, 0)
	}
	if last != 65535 {
		t.Fatalf("port before wrap = %d, want 65535", last)
	}
	// Mark 1024 as busy until t=100m; the wrapped allocator must skip it
	// for a flow starting inside the guard window and reuse it after.
	s.holdPort(1, 1024, 100*60e9)
	if p := s.nextPort(1, 100*60e9); p != 1025 {
		t.Fatalf("wrap reissued a busy port: got %d, want 1025", p)
	}
	pa := s.ports[1]
	pa.next = 1024
	if p := s.nextPort(1, 200*60e9); p != 1024 {
		t.Fatalf("idle port not reissued after the guard: got %d", p)
	}
}

// TestRetiredPortsServeAFreshCustomer: the allocator a finished customer
// leaves behind starts the next customer exactly where a new one would,
// at 1024 with no port held.
func TestRetiredPortsServeAFreshCustomer(t *testing.T) {
	s := &synthesizer{ports: map[int]*portAlloc{}}
	for i := 0; i < 10; i++ {
		s.holdPort(1, s.nextPort(1, 0), 60e9)
	}
	pa := s.ports[1]
	s.retirePorts(1)
	if s.ports[1] != nil || s.spare != pa || pa.next != 1024 || len(pa.busy) != 0 {
		t.Fatalf("retired allocator not cleared into the spare: %+v", pa)
	}
	if p := s.nextPort(2, 0); p != 1024 || s.ports[2] != pa || s.spare != nil {
		t.Fatalf("next customer's first port = %d, want 1024 from the spare allocator", p)
	}
}

// TestPortsDoNotCollideAcrossCustomers checks the allocator state is
// per-customer.
func TestPortsDoNotCollideAcrossCustomers(t *testing.T) {
	s := &synthesizer{ports: map[int]*portAlloc{}}
	if a, b := s.nextPort(1, 0), s.nextPort(2, 0); a != b {
		t.Fatalf("fresh allocators disagree: %d vs %d", a, b)
	}
}
