package shaper

import (
	"testing"
	"time"
)

func TestValidation(t *testing.T) {
	if _, err := NewTokenBucket(0, 100); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewTokenBucket(100, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

func TestBurstThenShaping(t *testing.T) {
	tb, err := NewTokenBucket(1000, 500) // 1000 B/s, 500 B burst
	if err != nil {
		t.Fatal(err)
	}
	// The burst passes immediately.
	if w := tb.Take(500, 0); w != 0 {
		t.Fatalf("burst delayed by %v", w)
	}
	// The next 1000 bytes must wait ~1s.
	w := tb.Take(1000, 0)
	if w < 900*time.Millisecond || w > 1100*time.Millisecond {
		t.Fatalf("post-burst wait %v, want ≈1s", w)
	}
}

func TestRefill(t *testing.T) {
	tb, _ := NewTokenBucket(1000, 500)
	tb.Take(500, 0)
	// After 0.5s, 500 tokens returned.
	if w := tb.Take(500, 500*time.Millisecond); w != 0 {
		t.Fatalf("refilled tokens not granted: wait %v", w)
	}
	// Refill never exceeds the burst.
	if w := tb.Take(501, 100*time.Second); w <= 0 {
		t.Fatal("bucket exceeded burst after long idle")
	}
}

func TestSteadyStateRate(t *testing.T) {
	tb, _ := NewTokenBucket(10000, 1000)
	var lastWait time.Duration
	for i := 0; i < 100; i++ {
		lastWait = tb.Take(1000, 0)
	}
	// 100 KB through a 10 KB/s bucket: the last chunk waits ≈9.9s.
	if lastWait < 9*time.Second || lastWait > 11*time.Second {
		t.Fatalf("steady-state wait %v, want ≈9.9s", lastWait)
	}
}

func TestPlansLineup(t *testing.T) {
	plans := Plans()
	if len(plans) != 5 {
		t.Fatalf("%d plans", len(plans))
	}
	prev := 0.0
	for _, p := range plans {
		if p.DownMbps <= prev {
			t.Fatalf("plans not increasing at %s", p.Name)
		}
		prev = p.DownMbps
		if p.UpMbps > 5 {
			t.Fatalf("%s uplink %v exceeds the 5 Mb/s cap", p.Name, p.UpMbps)
		}
	}
}

func TestForPlanRate(t *testing.T) {
	tb := ForPlan(Plan100)
	if got := tb.rate; got != 100e6/8 {
		t.Fatalf("rate %v", got)
	}
}
