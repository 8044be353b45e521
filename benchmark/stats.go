package main

import (
	"math"
	"sort"
)

// Stat is one metric as every result file carries it: the median of the
// samples taken inside the run, their quartiles, and how many there were.
type Stat struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// stat summarizes samples (which it sorts in place). One sample is its own
// median and quartiles; none yields the zero Stat with the unit set.
func stat(unit string, samples ...float64) Stat {
	s := Stat{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	s.Q1, s.Value, s.Q3 = quartiles(samples)
	return s
}

// quartiles returns the three cut points of sorted, computed exactly as
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// so a spread computed here equals the one the PR driver computes.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	m := len(sorted)
	if m == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile reads the p-th percentile (0..100) of sorted by the
// nearest-rank rule; sorted must be non-empty.
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailLadder are the percentiles a timing may be reported at, in
// thousandths so that the sample count beyond each is exact.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile is the reporting rule of the choosing-metrics guide: the
// highest percentile of the ladder that still has at least ten samples
// beyond it. Fewer than twenty samples support no tail at all, and the
// median is returned.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p)/1000 >= 10 {
			best = p
		}
	}
	return float64(best) / 10
}

// tail reads the metric reported as xfer_p95_ms: the 95th percentile where
// sorted holds the two hundred samples that takes, otherwise the highest
// percentile the rule above supports (the median below twenty samples).
func tail(sorted []float64) float64 {
	return percentile(sorted, min(95, tailPercentile(len(sorted))))
}

// worseBy is how much cur is worse than base, as a share of base: positive
// when a lower-is-better metric rose or a higher-is-better one fell.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// regressed applies a declared bound to two medians.
func regressed(base, cur float64, better string, bound float64) bool {
	return worseBy(base, cur, better) > bound
}
