package dist

import (
	"fmt"
	"math"
	"sort"
)

// Weighted selects among a fixed set of alternatives with the given weights.
// Weights need not sum to one; negative weights are rejected.
type Weighted[T any] struct {
	items []T
	cum   []float64
	total float64
}

// NewWeighted builds a weighted chooser. It returns an error when the inputs
// are mismatched, empty, or contain a negative or non-finite weight.
func NewWeighted[T any](items []T, weights []float64) (*Weighted[T], error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("dist: weighted chooser needs at least one item")
	}
	if len(items) != len(weights) {
		return nil, fmt.Errorf("dist: %d items but %d weights", len(items), len(weights))
	}
	w := &Weighted[T]{items: append([]T(nil), items...), cum: make([]float64, len(weights))}
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("dist: invalid weight %v at index %d", x, i)
		}
		w.total += x
		w.cum[i] = w.total
	}
	if w.total <= 0 {
		return nil, fmt.Errorf("dist: all weights are zero")
	}
	return w, nil
}

// MustWeighted is NewWeighted that panics on error, for static tables.
func MustWeighted[T any](items []T, weights []float64) *Weighted[T] {
	w, err := NewWeighted(items, weights)
	if err != nil {
		panic(err)
	}
	return w
}

// Sample draws one item proportionally to its weight.
func (w *Weighted[T]) Sample(r *Rand) T {
	x := r.Float64() * w.total
	i := sort.SearchFloat64s(w.cum, x)
	if i >= len(w.items) {
		i = len(w.items) - 1
	}
	return w.items[i]
}

// Empirical is a piecewise-linear inverse-CDF described by quantile knots.
// It is used where the paper reports a distribution only through a handful
// of quantiles.
type Empirical struct {
	q []float64 // quantile levels, ascending in (0,1)
	v []float64 // values at those levels, non-decreasing
}

// NewEmpirical builds an empirical distribution from (level, value) knots.
// Levels must be strictly increasing in (0,1); values must be non-decreasing.
func NewEmpirical(levels, values []float64) (*Empirical, error) {
	if len(levels) < 2 || len(levels) != len(values) {
		return nil, fmt.Errorf("dist: empirical needs >=2 matched knots")
	}
	for i := range levels {
		if levels[i] <= 0 || levels[i] >= 1 {
			return nil, fmt.Errorf("dist: empirical level %v out of (0,1)", levels[i])
		}
		if i > 0 && levels[i] <= levels[i-1] {
			return nil, fmt.Errorf("dist: empirical levels not increasing at %d", i)
		}
		if i > 0 && values[i] < values[i-1] {
			return nil, fmt.Errorf("dist: empirical values decreasing at %d", i)
		}
	}
	return &Empirical{q: append([]float64(nil), levels...), v: append([]float64(nil), values...)}, nil
}

// Quantile evaluates the inverse CDF at level p, linearly interpolating
// between knots and clamping outside the first/last knot.
func (e *Empirical) Quantile(p float64) float64 {
	if p <= e.q[0] {
		return e.v[0]
	}
	n := len(e.q)
	if p >= e.q[n-1] {
		return e.v[n-1]
	}
	i := sort.SearchFloat64s(e.q, p)
	// e.q[i-1] < p <= e.q[i]
	f := (p - e.q[i-1]) / (e.q[i] - e.q[i-1])
	return e.v[i-1] + f*(e.v[i]-e.v[i-1])
}

// Sample draws one value by inverse-CDF sampling.
func (e *Empirical) Sample(r *Rand) float64 { return e.Quantile(r.Float64()) }
