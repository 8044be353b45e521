package tcpmodel

import (
	"testing"
	"time"
)

// defaultParams fills the conventional values: IW10 and a 3 MiB PEP
// buffer.
func defaultParams(rtt time.Duration, bottleneckBps float64) Params {
	return Params{RTT: rtt, BottleneckBps: bottleneckBps, InitialWindow: 10, PEPBuffer: 3 << 20}
}

// Duration returns first-to-last data time, the denominator of the paper's
// throughput metric (§6.5: bytes / (last - first data segment)).
func (t Timeline) Duration() time.Duration { return t.LastData - t.FirstData }

// goodputBps is the gross throughput the probe computes: total bytes over
// first-to-last segment time (§6.5).
func goodputBps(n int64, tl Timeline) float64 {
	return float64(n) / tl.Duration().Seconds()
}

func TestHandshakeTiming(t *testing.T) {
	p := defaultParams(100*time.Millisecond, 1e6)
	tl := Compute(0, p)
	if tl.HandshakeDone != 100*time.Millisecond {
		t.Fatalf("handshake at %v, want 1 RTT", tl.HandshakeDone)
	}
	if tl.LastData != tl.FirstData {
		t.Fatal("empty transfer has data duration")
	}
}

func TestSmallFlowDominatedByRTT(t *testing.T) {
	// 15 KB at 12.5 MB/s with 100 ms RTT: ~11 segments, two rounds;
	// time is RTT-bound, not rate-bound.
	p := defaultParams(100*time.Millisecond, 12.5e6)
	tl := Compute(15_000, p)
	if tl.Rounds < 2 {
		t.Fatalf("%d rounds, want ≥2 (IW10 can't carry 11 segments)", tl.Rounds)
	}
	if d := tl.LastData - tl.HandshakeDone; d > 500*time.Millisecond {
		t.Fatalf("small flow took %v", d)
	}
	// Rate floor: at 12.5 MB/s, 15 KB takes 1.2 ms; RTT effects dominate.
	if g := goodputBps(15_000, tl); g > 12.5e6/4 {
		t.Fatalf("small flow reached %v B/s — slow start should prevent that", g)
	}
}

func TestLargeFlowReachesBottleneck(t *testing.T) {
	// 50 MB at 1.25 MB/s (a 10 Mb/s plan): the flow must saturate the
	// plan, so goodput lands within a few percent of the bottleneck.
	p := defaultParams(600*time.Millisecond, 1.25e6)
	n := int64(50 << 20)
	tl := Compute(n, p)
	g := goodputBps(n, tl)
	if g < 1.25e6*0.90 || g > 1.25e6*1.01 {
		t.Fatalf("goodput %v B/s, want ≈1.25e6", g)
	}
}

func TestHigherPlanFasterTransfer(t *testing.T) {
	n := int64(20 << 20)
	slow := Compute(n, defaultParams(600*time.Millisecond, 10e6/8))
	fast := Compute(n, defaultParams(600*time.Millisecond, 100e6/8))
	if fast.Duration() >= slow.Duration() {
		t.Fatalf("100 Mb/s (%v) not faster than 10 Mb/s (%v)", fast.Duration(), slow.Duration())
	}
}

func TestLongerRTTSlowsSlowStart(t *testing.T) {
	n := int64(1 << 20) // 1 MB: still window-bound
	near := Compute(n, defaultParams(20*time.Millisecond, 12.5e6))
	far := Compute(n, defaultParams(600*time.Millisecond, 12.5e6))
	if far.Duration() <= near.Duration() {
		t.Fatal("long RTT did not slow a window-bound flow")
	}
}

func TestSegmentsCount(t *testing.T) {
	p := defaultParams(100*time.Millisecond, 1e6)
	tl := Compute(MSS*10+1, p)
	if tl.Segments != 11 {
		t.Fatalf("%d segments, want 11", tl.Segments)
	}
}

func TestPEPBufferClampsEarly(t *testing.T) {
	// With a tiny PEP buffer the transfer hits rate-limited mode almost
	// immediately, so a big-buffer run finishes the window-bound phase
	// faster or equal.
	n := int64(10 << 20)
	small := defaultParams(600*time.Millisecond, 1.25e6)
	small.PEPBuffer = 64 << 10
	big := defaultParams(600*time.Millisecond, 1.25e6)
	big.PEPBuffer = 64 << 20
	ts := Compute(n, small)
	tb := Compute(n, big)
	if ts.Rounds > tb.Rounds {
		t.Fatalf("small buffer used more slow-start rounds (%d) than big (%d)", ts.Rounds, tb.Rounds)
	}
	if ts.Duration() < tb.Duration()/2 {
		t.Fatal("buffer size should not halve a rate-bound transfer")
	}
}

func TestDegenerateParams(t *testing.T) {
	tl := Compute(1000, Params{RTT: 0, BottleneckBps: 1e6, InitialWindow: 0})
	if tl.LastData <= 0 {
		t.Fatal("degenerate params produced a non-positive timeline")
	}
}

func TestGoodputMonotoneInBottleneckProperty(t *testing.T) {
	n := int64(30 << 20)
	prev := 0.0
	for _, mbps := range []float64{5, 10, 20, 30, 50, 100} {
		tl := Compute(n, defaultParams(600*time.Millisecond, mbps*1e6/8))
		g := goodputBps(n, tl)
		if g <= prev {
			t.Fatalf("goodput not increasing at %v Mb/s", mbps)
		}
		prev = g
	}
}
