// Package analytics is the post-processing stage of the pipeline (the
// paper's §3.1 "Hadoop/Spark" step): it enriches anonymized flow records
// with operator metadata (country, beam, plan, archetype), classifies
// server domains into services and categories, and provides the
// distribution tooling (quantiles, CDFs, CCDFs, boxplots, hourly rollups)
// the experiments are built on.
package analytics

import (
	"math"
	"sort"
)

// Sample is a set of float64 observations with quantile helpers. Create it
// with NewSample (which sorts once); all queries are O(log n) after that.
type Sample struct {
	sorted []float64
}

// NewSample copies and sorts the observations.
func NewSample(xs []float64) *Sample {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &Sample{sorted: s}
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.sorted) }

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.sorted {
		sum += x
	}
	return sum / float64(len(s.sorted))
}

// Quantile returns the q-quantile (0<=q<=1) with linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.sorted[lo]
	}
	f := pos - float64(lo)
	return s.sorted[lo]*(1-f) + s.sorted[hi]*f
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// CDF returns P(X <= x).
func (s *Sample) CDF(x float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(n)
}

// CCDF returns P(X > x) — the paper's Figure 5/11 axis.
func (s *Sample) CCDF(x float64) float64 { return 1 - s.CDF(x) }

// Boxplot summarizes the sample the way the paper's Figure 7 boxes do:
// whiskers at P5/P95, box at P25/P75, line at the median.
type Boxplot struct {
	P5, P25, P50, P75, P95 float64
	N                      int
}

// Box computes the Figure 7 summary.
func (s *Sample) Box() Boxplot {
	return Boxplot{
		P5:  s.Quantile(0.05),
		P25: s.Quantile(0.25),
		P50: s.Quantile(0.50),
		P75: s.Quantile(0.75),
		P95: s.Quantile(0.95),
		N:   s.Len(),
	}
}
