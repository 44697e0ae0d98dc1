package rng

import (
	"fmt"
	"math"
	"sync"
)

// lowerBound returns the smallest index i with cdf[i] >= u — the same
// contract as sort.SearchFloat64s, hand-rolled so the comparison is not
// behind a closure call. It is the reference a Zipf draw must match.
func lowerBound(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent s.
// Low ranks are the most popular. It is used to model hot-set locality in
// workload footprints: a few cache lines absorb most references, with a
// long cold tail, which is the reference behaviour reported for both user
// and OS working sets.
//
// A draw returns lowerBound(cdf, u) for u = Source.Float64(), computed on
// the Uint53 lattice without touching a float. A Zipf is immutable, so
// one table serves every region, core and job with the same (n, s).
type Zipf struct {
	// cut[i] = AtMost(cdf[i]), so cdf[i] >= u exactly when cut[i] >= m
	// for the draw's lattice point m: the rank is the first i whose cut
	// reaches m.
	cut []uint64
	// guide splits the lattice into 2^(53-shift) equal buckets; bucket
	// k = m >> shift holds the draws in [k<<shift, (k+1)<<shift).
	// guide[k] is the rank of the bucket's first point, shifted left
	// one, with the low bit set when that rank also covers the bucket's
	// last point, so every draw in the bucket resolves to it. Other
	// buckets search the ranks up to the next bucket's first, which is
	// why guide carries one extra entry.
	guide []uint32
	shift uint
}

type zipfKey struct {
	n int
	s float64
}

// zipfs memoizes samplers by (n, s). The workload profiles and the
// syscall catalog fix every region's geometry, so the set of keys a
// process ever builds stays small however many simulations it runs.
var zipfs = struct {
	sync.Mutex
	m map[zipfKey]*Zipf
}{m: map[zipfKey]*Zipf{}}

// NewZipf returns the sampler over n ranks with exponent s (> 0). The
// first call for an (n, s) builds it in O(n); later calls return the
// same table.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if !(s > 0) {
		panic("rng: NewZipf with non-positive exponent")
	}
	key := zipfKey{n, s}
	zipfs.Lock()
	defer zipfs.Unlock()
	z, ok := zipfs.m[key]
	if !ok {
		z = buildZipf(zipfCDF(n, s))
		zipfs.m[key] = z
	}
	return z
}

// zipfCDF returns the cumulative probability of each rank.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// guideBits picks log2 of the bucket count: at least four buckets per
// rank, so most buckets lie inside one rank and resolve with one load.
// Clamped so tiny samplers still work and huge footprints do not pay
// unbounded index memory.
func guideBits(n int) uint {
	b := uint(4)
	for b < 18 && 1<<b < 4*n {
		b++
	}
	return b
}

func buildZipf(cdf []float64) *Zipf {
	n := len(cdf)
	z := &Zipf{cut: make([]uint64, n), shift: 53 - guideBits(n)}
	for i, c := range cdf {
		z.cut[i] = AtMost(c)
	}
	buckets := 1 << (53 - z.shift)
	z.guide = make([]uint32, buckets+1)
	width := uint64(1) << z.shift
	i := 0
	for k := range z.guide {
		first := uint64(k) << z.shift
		for i < n-1 && z.cut[i] < first {
			i++
		}
		e := uint32(i) << 1
		if k < buckets && z.cut[i] >= first+width-1 {
			e |= 1
		}
		z.guide[k] = e
	}
	return z
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cut) }

// DrawFrom draws a rank using the caller's stream. Trace generation
// charges every per-reference draw to the consuming segment's private
// stream, so the number of references one segment performs can never
// shift the randomness any other segment sees.
func (z *Zipf) DrawFrom(src *Source) int {
	return z.rank(src.Uint53())
}

// rank maps the lattice point m to the first rank whose cut reaches it:
// exactly lowerBound(cdf, m/2^53).
func (z *Zipf) rank(m uint64) int {
	k := m >> z.shift
	e := z.guide[k]
	lo := int(e >> 1)
	if e&1 != 0 {
		return lo
	}
	hi := int(z.guide[k+1] >> 1)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cut[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical draws from a fixed discrete distribution given by weights.
// It is used for syscall-mix sampling: each benchmark profile assigns a
// weight to every syscall it issues.
type Categorical struct {
	src *Source
	cdf []float64
}

// NewCategorical builds a sampler over len(weights) categories. Weights
// must be non-negative and sum to a positive value.
func NewCategorical(src *Source, weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: categorical needs at least one weight")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("rng: categorical weight %d is %v", i, w)
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("rng: categorical weights sum to %v", sum)
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Categorical{src: src, cdf: cdf}, nil
}

// MustCategorical is NewCategorical that panics on invalid weights; for use
// with compile-time-constant profiles.
func MustCategorical(src *Source, weights []float64) *Categorical {
	c, err := NewCategorical(src, weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Draw returns a category index in [0, len(weights)).
func (c *Categorical) Draw() int {
	u := c.src.Float64()
	return lowerBound(c.cdf, u)
}

// K returns the number of categories.
func (c *Categorical) K() int { return len(c.cdf) }
