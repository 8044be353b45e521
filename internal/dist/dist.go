// Package dist provides the deterministic random-number plumbing and the
// statistical distributions used by the workload generator and the network
// simulator.
//
// All sampling goes through *Rand so that a single 64-bit seed reproduces an
// entire run. Sub-components derive independent streams with Fork, keyed by
// a label, so adding a new consumer does not perturb existing streams.
package dist

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Rand is a deterministic random source. It wraps math/rand/v2's PCG
// generator and adds the distribution samplers used across the project.
// The originating seed material is retained so Fork can derive independent
// streams that do not depend on how much the parent has been consumed.
type Rand struct {
	src  *rand.Rand
	seed uint64
}

// NewRand returns a Rand seeded from seed.
func NewRand(seed uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), seed: seed}
}

// Fork derives an independent deterministic stream keyed by label.
// Forking the same parent with the same label always yields the same stream,
// regardless of how much the parent has been consumed.
func (r *Rand) Fork(label string) *Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	k := h.Sum64()
	return NewRand(r.seed ^ k ^ 0xd1342543de82ef95)
}

// ForkN derives an independent stream keyed by label and an index, for
// per-entity streams (one per customer, per beam, ...).
func (r *Rand) ForkN(label string, n uint64) *Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	k := h.Sum64() ^ ((n + 1) * 0x9e3779b97f4a7c15)
	return NewRand(r.seed ^ k ^ 0xaf251af3b0f025b5)
}

// Float64 returns a uniform sample in [0,1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0,n). n must be > 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// ExpFloat64 returns a rate-1 exponential sample.
func (r *Rand) ExpFloat64() float64 { return r.src.ExpFloat64() }

// Shuffle pseudo-randomizes the order of n elements.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Exponential samples an exponential with the given mean.
func (r *Rand) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.src.ExpFloat64() * mean
}

// LogNormal describes a log-normal distribution by the underlying normal's
// mu and sigma (of the log).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// LogNormalFromMedian builds a LogNormal with the given median and sigma of
// the log. The median of a log-normal is exp(mu).
func LogNormalFromMedian(median, sigma float64) LogNormal {
	if median <= 0 {
		median = math.SmallestNonzeroFloat64
	}
	return LogNormal{Mu: math.Log(median), Sigma: sigma}
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Median returns exp(mu).
func (d LogNormal) Median() float64 { return math.Exp(d.Mu) }

// Quantile returns the q-quantile (0<q<1) using the normal quantile of the log.
func (d LogNormal) Quantile(q float64) float64 {
	return math.Exp(d.Mu + d.Sigma*normQuantile(q))
}

// Sample draws one value.
func (d LogNormal) Sample(r *Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Pareto is a bounded Pareto distribution on [Min, Max] with shape Alpha.
// Bounding keeps single samples from dominating small simulated populations
// while preserving the heavy tail the paper's volume distributions show.
type Pareto struct {
	Min   float64
	Max   float64
	Alpha float64
}

// Sample draws one value via inverse-CDF of the bounded Pareto.
func (p Pareto) Sample(r *Rand) float64 {
	if p.Min <= 0 || p.Max <= p.Min {
		return p.Min
	}
	a := p.Alpha
	if a <= 0 {
		a = 1
	}
	u := r.Float64()
	la, ha := math.Pow(p.Min, a), math.Pow(p.Max, a)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/a)
	if x < p.Min {
		x = p.Min
	}
	if x > p.Max {
		x = p.Max
	}
	return x
}

// normQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9), enough for reporting quantiles.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormQuantile exposes the inverse standard normal CDF.
func NormQuantile(p float64) float64 { return normQuantile(p) }
