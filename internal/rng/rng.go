// Package rng provides the deterministic pseudo-random number generation
// used throughout the simulator. Every stochastic component of the system
// (workload generators, run-length noise, interrupt arrival, replacement
// tie-breaking) draws from a seeded Source so that whole-system simulations
// are reproducible bit-for-bit across runs and platforms.
//
// The generator is SplitMix64 (Steele, Lea, Flood; JavaOne 2014), chosen for
// its tiny state, full 2^64 period per stream, and the ability to fork
// statistically independent child streams cheaply — each simulated core,
// workload and region walker owns its own stream so adding an access in one
// component never perturbs another.
package rng

import "math"

// Source is a deterministic 64-bit PRNG stream. The zero value is a valid
// stream seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield streams that
// are statistically independent for simulation purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Fork derives a child stream from the current state. The child is
// independent of subsequent draws from the parent, so components can be
// given private streams at construction time.
func (s *Source) Fork() *Source {
	v := s.ForkVal()
	return &v
}

// ForkVal is Fork without the heap allocation: it returns the child
// stream by value, for embedding inside pooled structures. The child
// state is identical to what Fork would have produced.
func (s *Source) ForkVal() Source {
	// Mix the parent's next output through a different finalizer so the
	// child does not share its sequence with the parent.
	v := s.Uint64()
	v ^= v >> 33
	v *= 0xFF51AFD7ED558CCD
	v ^= v >> 33
	return Source{state: v}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float in [0, 1): the lattice point
// Uint53()/2^53.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uint53 returns the next draw on the lattice Float64 maps onto [0, 1):
// Float64 would have returned exactly Uint53()/2^53. Both conversions
// are exact, so comparing a draw u = m/2^53 against a fixed x reduces to
// an integer compare of m against x scaled by 2^53 (scaling by a power of
// two is exact too):
//
//	u <= x  ⟺  m <= floor(x·2^53)  (AtMost)
//	u <  x  ⟺  m <  ceil(x·2^53)   (Chance)
//
// The hot per-reference draws use these forms, which return exactly what
// the float compares would.
func (s *Source) Uint53() uint64 {
	return s.Uint64() >> 11
}

// AtMost returns floor(x·2^53) for x >= 0: a draw satisfies
// Float64() <= x exactly when its Uint53() <= AtMost(x).
func AtMost(x float64) uint64 {
	return uint64(math.Floor(x * (1 << 53)))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Chance is Bool(p) for a p fixed ahead of time, resolved on the Uint53
// lattice: NewChance(p).DrawFrom(src) returns what src.Bool(p) would and
// leaves src at the same position, including Bool's no-draw cases for
// p <= 0 and p >= 1 and a NaN p, which draws and returns false.
type Chance struct {
	cut  uint64 // a draw m succeeds when m < cut
	draw bool   // false when the outcome needs no draw: then it is cut != 0
}

// NewChance precomputes the trial Bool(p).
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return Chance{}
	case p >= 1:
		return Chance{cut: 1}
	case p > 0: // p in (0, 1): u < p ⟺ m < ceil(p·2^53)
		return Chance{cut: uint64(math.Ceil(p * (1 << 53))), draw: true}
	}
	return Chance{draw: true} // NaN: draws, and no m is below 0
}

// DrawFrom runs the trial on src.
func (c Chance) DrawFrom(src *Source) bool {
	if !c.draw {
		return c.cut != 0
	}
	return src.Uint53() < c.cut
}

// Range returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation, using the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := s.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a draw from the log-normal distribution whose underlying
// normal has parameters mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Geometric returns the number of failures before the first success in a
// Bernoulli(p) process. For p >= 1 it returns 0; p <= 0 panics.
func (s *Source) Geometric(p float64) int {
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	if p >= 1 {
		return 0
	}
	u := s.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}
