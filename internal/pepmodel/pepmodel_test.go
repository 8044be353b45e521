package pepmodel

import (
	"io"
	"satwatch/internal/trace"
	"testing"
	"time"

	"satwatch/internal/dist"
)

func TestMeanSetupDelayGrowsWithRho(t *testing.T) {
	m := Default()
	prev := time.Duration(0)
	for _, rho := range []float64{0, 0.5, 0.9, 0.98} {
		d := m.MeanSetupDelay(rho)
		if d <= prev {
			t.Fatalf("mean setup delay %v at rho=%.2f not above %v", d, rho, prev)
		}
		prev = d
	}
}

func TestSaturationReachesSeconds(t *testing.T) {
	// §6.1: PEP saturation adds seconds to connection setup.
	m := Default()
	if d := m.MeanSetupDelay(1.5); d < time.Second {
		t.Fatalf("saturated mean setup %v, want ≥ 1s", d)
	}
}

func TestRhoClamping(t *testing.T) {
	m := Default()
	if m.MeanSetupDelay(-1) != m.MeanSetupDelay(0) {
		t.Fatal("negative rho not clamped to 0")
	}
	if m.MeanSetupDelay(5) != m.MeanSetupDelay(m.MaxRho) {
		t.Fatal("rho above MaxRho not clamped")
	}
}

func TestSetupDelaySampleMean(t *testing.T) {
	m := Default()
	r := dist.NewRand(1)
	const rho = 0.8
	var sum time.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		sum += m.SetupDelay(rho, r)
	}
	got := float64(sum) / n
	want := float64(m.MeanSetupDelay(rho))
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("sample mean %v, want ≈%v", time.Duration(got), time.Duration(want))
	}
}

func TestRho(t *testing.T) {
	// Capacity = peak rate × factor; rho is offered/capacity.
	if got := Rho(50, 100, 1.0); got != 0.5 {
		t.Fatalf("Rho(50,100,1)=%v, want 0.5", got)
	}
	if got := Rho(100, 100, 0.75); got < 1.33 || got > 1.34 {
		t.Fatalf("Rho(100,100,0.75)=%v, want ≈1.333", got)
	}
	if Rho(10, 0, 1) != 0 || Rho(10, 100, 0) != 0 {
		t.Fatal("degenerate capacities should give rho 0")
	}
}

func TestSetupDelayTracedRecordsSpan(t *testing.T) {
	m := Default()
	fl := trace.New(io.Discard, 1).Start(3, 0, 1)
	d := m.SetupDelayTraced(0.9, dist.NewRand(4), fl)
	want := m.SetupDelay(0.9, dist.NewRand(4))
	if d != want {
		t.Fatalf("traced delay %v differs from untraced %v", d, want)
	}
	if len(fl.Spans) != 1 || fl.Spans[0].Name != trace.SpanPEPSetup {
		t.Fatalf("expected one %s span, got %+v", trace.SpanPEPSetup, fl.Spans)
	}
	s := fl.Spans[0]
	if s.Seg != trace.SegSatellite || s.Attrs["rho"] != 0.9 {
		t.Fatalf("span wrong: %+v", s)
	}
}
