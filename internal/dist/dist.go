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
//
// The generator state lives inside the Rand, so a stream is one heap
// object. Its src points into the same struct: never copy a Rand by
// value, or the copy would draw from the original's state. go vet's
// copylocks check flags such a copy (see noCopy).
type Rand struct {
	_    noCopy
	pcg  rand.PCG
	src  rand.Rand
	seed uint64
}

// noCopy makes go vet report a copied Rand: copylocks flags any value
// whose pointer has Lock and Unlock methods.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewRand returns a Rand seeded from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.reseed(seed)
	return r
}

// reseed restarts r as the stream NewRand(seed) returns.
func (r *Rand) reseed(seed uint64) {
	r.seed = seed
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	r.src = *rand.New(&r.pcg)
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
	return NewRand(forkNSeed(r.seed, label, n))
}

// SetForkN is ForkN in place: it re-seeds r as the stream
// parent.ForkN(label, n) returns, without allocating one. A caller
// drawing one short stream per item keeps a single Rand and re-seeds it.
func (r *Rand) SetForkN(parent *Rand, label string, n uint64) {
	r.reseed(forkNSeed(parent.seed, label, n))
}

func forkNSeed(seed uint64, label string, n uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	k := h.Sum64() ^ ((n + 1) * 0x9e3779b97f4a7c15)
	return seed ^ k ^ 0xaf251af3b0f025b5
}

// Float64 returns a uniform sample in [0,1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0,n). n must be > 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

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

// Sample draws one value.
func (d LogNormal) Sample(r *Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}
