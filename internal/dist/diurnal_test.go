package dist

import (
	"math"
	"testing"
	"time"
)

func eveningProfile() *Diurnal {
	var w [24]float64
	for h := range w {
		w[h] = 1
	}
	w[19] = 10 // evening prime time
	w[20] = 8
	return MustDiurnal(w)
}

func TestDiurnalValidation(t *testing.T) {
	var zero [24]float64
	if _, err := NewDiurnal(zero); err == nil {
		t.Fatal("all-zero profile accepted")
	}
	var neg [24]float64
	neg[3] = -1
	neg[4] = 1
	if _, err := NewDiurnal(neg); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestDiurnalPeakAndIntensity(t *testing.T) {
	d := eveningProfile()
	if d.PeakHour() != 19 {
		t.Fatalf("peak hour %d, want 19", d.PeakHour())
	}
	if d.Intensity(19) != 1 {
		t.Fatalf("peak intensity %v, want 1", d.Intensity(19))
	}
	if got := d.Intensity(3); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("off-peak intensity %v, want 0.1", got)
	}
	// Hour indices wrap.
	if d.Intensity(19+24) != d.Intensity(19) || d.Intensity(-5) != d.Intensity(19) {
		t.Fatal("hour wrapping broken")
	}
}

func TestDiurnalSampleDistribution(t *testing.T) {
	d := eveningProfile()
	r := NewRand(21)
	counts := make([]int, 24)
	const n = 100000
	for i := 0; i < n; i++ {
		tod := d.SampleTimeOfDay(r)
		if tod < 0 || tod >= 24*time.Hour {
			t.Fatalf("time of day %v outside a day", tod)
		}
		counts[int(tod/time.Hour)]++
	}
	for h := 0; h < 24; h++ {
		got, want := float64(counts[h])/n, d.weights[h]/d.total
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("hour %d frequency %.4f, want %.4f", h, got, want)
		}
	}
}
