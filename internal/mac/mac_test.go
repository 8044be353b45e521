package mac

import (
	"io"
	"satwatch/internal/trace"
	"testing"
	"time"

	"satwatch/internal/dist"
)

// fastParams shrinks the micro-simulation for test runtime.
func fastParams() Params {
	p := DefaultParams()
	p.SimFrames = 600
	return p
}

// simulateAccessDelay runs one micro-simulation on fresh scratch, as the
// cell cache does for each grid point.
func simulateAccessDelay(p Params, util, fer float64, seed uint64) *dist.Empirical {
	return simulate(p, util, fer, seed, &scratch{})
}

func TestAccessDelayPositiveAndBounded(t *testing.T) {
	p := fastParams()
	e := simulateAccessDelay(p, 0.5, 1e-3, 1)
	for _, q := range []float64{0.05, 0.5, 0.95} {
		d := time.Duration(e.Quantile(q))
		if d <= 0 {
			t.Fatalf("q%.2f delay %v not positive", q, d)
		}
		if d > 30*time.Second {
			t.Fatalf("q%.2f delay %v absurd", q, d)
		}
	}
}

func TestModerateLoadDelaysAreSmall(t *testing.T) {
	// With held reservations, steady-state access at moderate load should
	// be dominated by frame alignment: well under one control loop.
	p := fastParams()
	e := simulateAccessDelay(p, 0.5, 1e-5, 2)
	if med := time.Duration(e.Quantile(0.5)); med > 150*time.Millisecond {
		t.Fatalf("median access delay %v at util 0.5, want < 150ms", med)
	}
}

func TestSparseTrafficPaysContention(t *testing.T) {
	// At very low utilization reservations expire between bursts, so the
	// tail pays slotted-Aloha plus the grant control loop (≥ HopRTT).
	p := fastParams()
	e := simulateAccessDelay(p, 0.05, 1e-5, 3)
	if p95 := time.Duration(e.Quantile(0.95)); p95 < p.HopRTT {
		t.Fatalf("p95 %v at sparse load, want ≥ control loop %v", p95, p.HopRTT)
	}
}

func TestOverloadInflatesDelay(t *testing.T) {
	p := fastParams()
	low := simulateAccessDelay(p, 0.5, 1e-5, 4)
	high := simulateAccessDelay(p, 0.98, 1e-5, 4)
	if high.Quantile(0.9) <= low.Quantile(0.9) {
		t.Fatalf("p90 at util 0.98 (%v) not above util 0.5 (%v)",
			time.Duration(high.Quantile(0.9)), time.Duration(low.Quantile(0.9)))
	}
}

func TestHighFERInflatesTail(t *testing.T) {
	p := fastParams()
	clean := simulateAccessDelay(p, 0.4, 1e-5, 5)
	dirty := simulateAccessDelay(p, 0.4, 0.12, 5)
	if dirty.Quantile(0.95) <= clean.Quantile(0.95) {
		t.Fatal("FER 0.12 did not inflate the p95 access delay")
	}
	// One ARQ recovery costs at least a control loop.
	if gap := dirty.Quantile(0.99) - clean.Quantile(0.99); time.Duration(gap) < p.HopRTT/2 {
		t.Fatalf("p99 gap %v too small for ARQ recovery", time.Duration(gap))
	}
}

func TestSimulationDeterminism(t *testing.T) {
	p := fastParams()
	a := simulateAccessDelay(p, 0.65, 1e-3, 77)
	b := simulateAccessDelay(p, 0.65, 1e-3, 77)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("same seed diverged at q%.1f", q)
		}
	}
}

func TestUtilClamping(t *testing.T) {
	p := fastParams()
	// Out-of-range utilizations must not hang or panic.
	if simulateAccessDelay(p, -1, 1e-3, 6) == nil {
		t.Fatal("nil distribution for clamped low util")
	}
	if simulateAccessDelay(p, 2, 1e-3, 7) == nil {
		t.Fatal("nil distribution for clamped high util")
	}
}

func TestModelSamplingAndCaching(t *testing.T) {
	p := fastParams()
	m := NewModel(p)
	r := dist.NewRand(9)
	d1 := m.SampleUplink(0.5, 1e-3, r)
	if d1 <= 0 {
		t.Fatalf("sample %v not positive", d1)
	}
	// Second call hits the cached cell; quantiles must be stable.
	q := m.QuantileUplink(0.5, 1e-3, 0.5)
	if q != m.QuantileUplink(0.5, 1e-3, 0.5) {
		t.Fatal("cached cell unstable")
	}
	if m.Params().SimFrames != p.SimFrames {
		t.Fatal("Params accessor broken")
	}
}

func TestDownlinkQueueingGrowsWithUtil(t *testing.T) {
	m := NewModel(fastParams())
	r1 := dist.NewRand(10)
	r2 := dist.NewRand(10)
	var lo, hi time.Duration
	for i := 0; i < 2000; i++ {
		lo += m.SampleDownlinkTraced(0.2, 1e-5, r1, nil)
		hi += m.SampleDownlinkTraced(0.97, 1e-5, r2, nil)
	}
	if hi <= lo*2 {
		t.Fatalf("downlink congestion too mild: mean(0.97)=%v vs mean(0.2)=%v", hi/2000, lo/2000)
	}
}

func TestDownlinkFERAddsControlLoops(t *testing.T) {
	m := NewModel(fastParams())
	r1 := dist.NewRand(11)
	r2 := dist.NewRand(11)
	var clean, dirty time.Duration
	for i := 0; i < 3000; i++ {
		clean += m.SampleDownlinkTraced(0.3, 0, r1, nil)
		dirty += m.SampleDownlinkTraced(0.3, 0.12, r2, nil)
	}
	if dirty <= clean {
		t.Fatal("downlink FER did not add delay")
	}
}

func TestDistillEmptyFallback(t *testing.T) {
	e := distill(nil, DefaultParams())
	if e == nil {
		t.Fatal("nil fallback distribution")
	}
	half := float64(DefaultParams().FrameDuration) / 2
	if e.Quantile(0.5) != half {
		t.Fatalf("fallback quantile %v, want %v", e.Quantile(0.5), half)
	}
}

func TestSampleUplinkTracedRecordsSpan(t *testing.T) {
	m := NewModel(fastParams())
	fl := trace.New(io.Discard, 1).Start(1, 0, 2)
	d := m.SampleUplinkTraced(0.5, 1e-5, dist.NewRand(7), fl)
	want := m.SampleUplink(0.5, 1e-5, dist.NewRand(7))
	if d != want {
		t.Fatalf("traced sample %v differs from untraced %v", d, want)
	}
	if len(fl.Spans) != 1 || fl.Spans[0].Name != trace.SpanMACUplink {
		t.Fatalf("expected one %s span, got %+v", trace.SpanMACUplink, fl.Spans)
	}
	s := fl.Spans[0]
	if s.Seg != trace.SegSatellite || s.DurMS != float64(d)/float64(time.Millisecond) {
		t.Fatalf("span wrong: %+v for delay %v", s, d)
	}
	if s.Attrs["util"] != 0.5 || s.Attrs["fer"] != 1e-5 {
		t.Fatalf("span missing inputs: %+v", s.Attrs)
	}
}

func TestSampleDownlinkTracedRecordsSpan(t *testing.T) {
	m := NewModel(fastParams())
	fl := trace.New(io.Discard, 1).Start(1, 0, 2)
	d := m.SampleDownlinkTraced(0.7, 1e-4, dist.NewRand(8), fl)
	if len(fl.Spans) != 1 || fl.Spans[0].Name != trace.SpanMACDownlink {
		t.Fatalf("expected one %s span, got %+v", trace.SpanMACDownlink, fl.Spans)
	}
	if fl.Spans[0].DurMS != float64(d)/float64(time.Millisecond) {
		t.Fatalf("span duration %v vs delay %v", fl.Spans[0].DurMS, d)
	}
}

// TestPartialParamsGetDefaults regresses the divide-by-zero crash: a
// caller overriding only some knobs (here FrameDuration) used to leave
// SlotsPerFrame zero and panic inside the micro-simulation.
func TestPartialParamsGetDefaults(t *testing.T) {
	p := Params{FrameDuration: 30 * time.Millisecond, SimFrames: 600}
	e := simulateAccessDelay(p, 0.5, 1e-3, 3)
	if e == nil || e.Quantile(0.5) <= 0 {
		t.Fatal("partial params produced no usable distribution")
	}
	m := NewModel(Params{FrameDuration: 30 * time.Millisecond, SimFrames: 600})
	if d := m.SampleUplink(0.5, 1e-3, dist.NewRand(3)); d <= 0 {
		t.Fatalf("partial-params model sampled %v", d)
	}
	eff := m.Params()
	if eff.FrameDuration != 30*time.Millisecond {
		t.Fatalf("override lost: FrameDuration %v", eff.FrameDuration)
	}
	if eff.SlotsPerFrame != DefaultParams().SlotsPerFrame {
		t.Fatalf("SlotsPerFrame not defaulted: %d", eff.SlotsPerFrame)
	}
}

// TestWithDefaultsSemantics pins the two special fields: zero means
// "default" for MaxARQRetries (use negative to disable ARQ) and Seed.
func TestWithDefaultsSemantics(t *testing.T) {
	eff := Params{}.WithDefaults()
	if eff != DefaultParams() {
		t.Fatalf("zero params != DefaultParams: %+v", eff)
	}
	noARQ := Params{MaxARQRetries: -1}.WithDefaults()
	if noARQ.MaxARQRetries != -1 {
		t.Fatalf("negative MaxARQRetries overwritten: %d", noARQ.MaxARQRetries)
	}
}

// TestPrebuildWarmsFullGrid checks Prebuild leaves no cell to be built
// lazily and that sampling afterwards agrees with lazy building.
func TestPrebuildWarmsFullGrid(t *testing.T) {
	p := fastParams()
	p.SimFrames = 300
	p.Seed = 0xfeed1 // distinct Params → fresh process-wide cache entries
	warm := NewModel(p)
	warm.Prebuild(4)
	lazy := NewModel(p)
	for _, u := range []float64{0.05, 0.65, 0.98} {
		for _, f := range []float64{1e-5, 1e-2, 0.12} {
			if warm.QuantileUplink(u, f, 0.5) != lazy.QuantileUplink(u, f, 0.5) {
				t.Fatalf("prebuilt cell (%v,%v) differs from lazy build", u, f)
			}
		}
	}
	if warm.GridSize() <= 0 {
		t.Fatal("grid size not reported")
	}
}
