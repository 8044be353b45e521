package dist

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestForkIndependentOfConsumption(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 50; i++ {
		a.Float64() // consume the parent
	}
	fa := a.Fork("workload")
	fb := b.Fork("workload")
	for i := 0; i < 20; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("forked stream depends on parent consumption")
		}
	}
}

func TestForkLabelsDiffer(t *testing.T) {
	r := NewRand(1)
	if r.Fork("a").Uint64() == r.Fork("b").Uint64() {
		t.Fatal("different labels gave identical streams")
	}
	if r.ForkN("x", 1).Uint64() == r.ForkN("x", 2).Uint64() {
		t.Fatal("different indices gave identical streams")
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(9)
	const mean = 250.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("exponential mean %.2f, want ~%.0f", got, mean)
	}
	if r.Exponential(0) != 0 || r.Exponential(-5) != 0 {
		t.Fatal("non-positive mean should sample 0")
	}
}

func TestLogNormalMedianAndMean(t *testing.T) {
	d := LogNormalFromMedian(100, 1.0)
	r := NewRand(11)
	below, sum := 0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		if x < 100 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("%.3f of samples below the median, want ~0.5", frac)
	}
	// The mean is exp(mu + sigma^2/2); sigma = 1 puts its standard error
	// over n draws near 0.4 %.
	if wantMean := 100 * math.Exp(0.5); math.Abs(sum/n-wantMean)/wantMean > 0.02 {
		t.Fatalf("sample mean %.2f, want ~%.2f", sum/n, wantMean)
	}
}
