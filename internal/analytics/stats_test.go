package analytics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	s := NewSample(nil)
	if s.Len() != 0 || s.Median() != 0 || s.Mean() != 0 || s.Min() != 0 {
		t.Fatal("empty sample not all-zero")
	}
	if s.CDF(5) != 0 || s.CCDF(5) != 1 {
		t.Fatal("empty CDF wrong")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample([]float64{5, 1, 3, 2, 4})
	if s.Min() != 1 {
		t.Fatalf("min %v", s.Min())
	}
	if s.Median() != 3 {
		t.Fatalf("median %v", s.Median())
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	// Interpolation: q=0.25 over 5 sorted values = index 1 exactly.
	if got := s.Quantile(0.25); got != 2 {
		t.Fatalf("q25 %v", got)
	}
	if got := s.Quantile(0.125); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("q12.5 %v, want 1.5", got)
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("mean %v", got)
	}
}

func TestSampleDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewSample(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestCDFAndCCDF(t *testing.T) {
	s := NewSample([]float64{1, 2, 2, 3})
	cases := []struct{ x, cdf float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.CDF(c.x); math.Abs(got-c.cdf) > 1e-12 {
			t.Errorf("CDF(%v)=%v, want %v", c.x, got, c.cdf)
		}
		if got := s.CCDF(c.x); math.Abs(got-(1-c.cdf)) > 1e-12 {
			t.Errorf("CCDF(%v)=%v, want %v", c.x, got, 1-c.cdf)
		}
	}
}

func TestBoxplot(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	b := NewSample(xs).Box()
	if b.N != 100 {
		t.Fatalf("N %d", b.N)
	}
	if b.P50 < 50 || b.P50 > 51 {
		t.Fatalf("median %v", b.P50)
	}
	if !(b.P5 < b.P25 && b.P25 < b.P50 && b.P50 < b.P75 && b.P75 < b.P95) {
		t.Fatalf("box not ordered: %+v", b)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	s := NewSample([]float64{9, 1, 7, 3, 5, 2, 8})
	f := func(a, b uint8) bool {
		q1 := float64(a) / 255
		q2 := float64(b) / 255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return s.Quantile(q1) <= s.Quantile(q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileInverseProperty(t *testing.T) {
	xs := []float64{2, 4, 4, 8, 16, 23, 42}
	s := NewSample(xs)
	// For every observation x: CDF(x) ≥ rank/n and Quantile(CDF(x)) ≥ x is
	// not generally true with interpolation, but CDF must be a
	// non-decreasing step function hitting 1 at the max.
	prev := 0.0
	for x := 0.0; x <= 50; x += 0.5 {
		c := s.CDF(x)
		if c < prev {
			t.Fatalf("CDF decreasing at %v", x)
		}
		prev = c
	}
	if s.CDF(42) != 1 {
		t.Fatal("CDF(max) != 1")
	}
}
