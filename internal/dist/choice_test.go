package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted([]string{}, []float64{}); err == nil {
		t.Fatal("empty chooser accepted")
	}
	if _, err := NewWeighted([]string{"a"}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewWeighted([]string{"a"}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewWeighted([]string{"a"}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewWeighted([]string{"a", "b"}, []float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestWeightedProportions(t *testing.T) {
	w := MustWeighted([]string{"a", "b", "c"}, []float64{1, 2, 7})
	r := NewRand(5)
	counts := map[string]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	for item, want := range map[string]float64{"a": 0.1, "b": 0.2, "c": 0.7} {
		got := float64(counts[item]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("item %s frequency %.3f, want %.2f", item, got, want)
		}
	}
}

func TestWeightedZeroWeightNeverSampled(t *testing.T) {
	w := MustWeighted([]string{"never", "always"}, []float64{0, 1})
	r := NewRand(6)
	for i := 0; i < 10000; i++ {
		if w.Sample(r) == "never" {
			t.Fatal("zero-weight item sampled")
		}
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical([]float64{0.5}, []float64{1}); err == nil {
		t.Fatal("single knot accepted")
	}
	if _, err := NewEmpirical([]float64{0.2, 0.1}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing levels accepted")
	}
	if _, err := NewEmpirical([]float64{0.1, 0.2}, []float64{2, 1}); err == nil {
		t.Fatal("decreasing values accepted")
	}
	if _, err := NewEmpirical([]float64{0, 0.5}, []float64{1, 2}); err == nil {
		t.Fatal("level 0 accepted")
	}
}

func TestEmpiricalInterpolation(t *testing.T) {
	e, err := NewEmpirical([]float64{0.25, 0.75}, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Quantile(0.5); math.Abs(got-20) > 1e-12 {
		t.Fatalf("Quantile(0.5)=%v, want 20", got)
	}
	if got := e.Quantile(0.01); got != 10 {
		t.Fatalf("below first knot: %v, want clamp to 10", got)
	}
	if got := e.Quantile(0.99); got != 30 {
		t.Fatalf("above last knot: %v, want clamp to 30", got)
	}
}

func TestEmpiricalQuantileMonotoneProperty(t *testing.T) {
	e, err := NewEmpirical([]float64{0.1, 0.5, 0.9}, []float64{1, 5, 100})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		p1 := float64(a) / 65536
		p2 := float64(b) / 65536
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return e.Quantile(p1) <= e.Quantile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalSampleWithinRange(t *testing.T) {
	e, _ := NewEmpirical([]float64{0.05, 0.95}, []float64{3, 7})
	r := NewRand(10)
	for i := 0; i < 10000; i++ {
		x := e.Sample(r)
		if x < 3 || x > 7 {
			t.Fatalf("sample %v outside knot range", x)
		}
	}
}
