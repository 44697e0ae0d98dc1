package rng

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/1000 draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	// The child must not replay the parent's sequence.
	p := make([]uint64, 64)
	c := make([]uint64, 64)
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	matches := 0
	for i := range p {
		if p[i] == c[i] {
			matches++
		}
	}
	if matches > 1 {
		t.Fatalf("forked stream matched parent on %d/64 draws", matches)
	}
}

func TestForkDeterminism(t *testing.T) {
	a := New(9)
	b := New(9)
	ca := a.Fork()
	cb := b.Fork()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("forks of identical parents diverged at draw %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) returned %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 returned %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestRangeInclusive(t *testing.T) {
	s := New(17)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := s.Range(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("Range(5,8) returned %d", v)
		}
		if v == 5 {
			seenLo = true
		}
		if v == 8 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("Range(5,8) never produced an endpoint")
	}
	// Degenerate range.
	if v := s.Range(4, 4); v != 4 {
		t.Fatalf("Range(4,4) = %d", v)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(23)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(29)
	const p = 0.2
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // mean of failures-before-success
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
	if s.Geometric(1.0) != 0 {
		t.Fatal("Geometric(1) != 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.DrawFrom(s)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf rank 0 (%d) not hotter than rank 50 (%d)", counts[0], counts[50])
	}
	// Rank 0 should take roughly 1/H(100) ~ 19% of draws for s=1.
	frac := float64(counts[0]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("Zipf rank-0 fraction = %v, want ~0.19", frac)
	}
}

func TestZipfBounds(t *testing.T) {
	s := New(37)
	z := NewZipf(8, 1.2)
	for i := 0; i < 10000; i++ {
		v := z.DrawFrom(s)
		if v < 0 || v >= 8 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	s := New(41)
	c := MustCategorical(s, []float64{1, 3, 6})
	counts := make([]int, 3)
	const n = 120000
	for i := 0; i < n; i++ {
		counts[c.Draw()]++
	}
	want := []float64{0.1, 0.3, 0.6}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Fatalf("category %d frequency = %v, want ~%v", i, got, w)
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	s := New(43)
	if _, err := NewCategorical(s, nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewCategorical(s, []float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewCategorical(s, []float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestCategoricalZeroWeightNeverDrawn(t *testing.T) {
	s := New(47)
	c := MustCategorical(s, []float64{0, 1, 0})
	for i := 0; i < 10000; i++ {
		if v := c.Draw(); v != 1 {
			t.Fatalf("zero-weight category drawn: %d", v)
		}
	}
}

// ForkVal must produce exactly the state Fork would have, so converting
// a call site from one to the other cannot move any random stream.
func TestForkValMatchesFork(t *testing.T) {
	a, b := New(51), New(51)
	for i := 0; i < 100; i++ {
		ca := a.Fork()
		cb := b.ForkVal()
		for j := 0; j < 8; j++ {
			if ca.Uint64() != cb.Uint64() {
				t.Fatalf("ForkVal diverged from Fork at fork %d draw %d", i, j)
			}
		}
	}
}

// A Zipf draw must return exactly lowerBound(cdf, u) for the u = m/2^53
// that Float64 makes of the same draw, or committed golden results would
// shift. Random draws cover the common case. The rank boundaries are
// where a rounding slip in the lattice thresholds hides, so they are
// driven one lattice point either side, as are the guide's bucket edges.
func TestZipfGuideMatchesLowerBound(t *testing.T) {
	// For cdf in [0.25, 0.5), cdf·2^53 can be a half-integer: there
	// ceil(cdf·2^53) as a threshold would disagree with the lower bound
	// at one point in 2^53, too rarely for any golden run to notice.
	halfIntegers := 0
	for _, n := range []int{1, 2, 3, 7, 100, 1024, 4500, 70000} {
		for _, s := range []float64{0.75, 0.9, 1.01} {
			cdf := zipfCDF(n, s)
			z := NewZipf(n, s)
			check := func(m uint64) {
				if m >= 1<<53 {
					return
				}
				if got, want := z.rank(m), lowerBound(cdf, float64(m)/(1<<53)); got != want {
					t.Fatalf("n=%d s=%v m=%d: lattice rank %d, lower bound %d", n, s, m, got, want)
				}
			}
			src := New(uint64(59 + n))
			for i := 0; i < 20000; i++ {
				check(src.Uint53())
			}
			for _, c := range cdf {
				scaled := c * (1 << 53)
				b := uint64(math.Floor(scaled))
				check(b - 1)
				check(b)
				check(b + 1)
				if c >= 0.25 && c < 0.5 && scaled-math.Floor(scaled) == 0.5 {
					halfIntegers++
				}
			}
			for k := range z.guide {
				first := uint64(k) << z.shift
				check(first)
				check(first - 1)
			}
			check(0)
			check(1<<53 - 1)
		}
	}
	if halfIntegers == 0 {
		t.Fatal("no cdf value in [0.25, 0.5) scaled to a half-integer; the rounding edge went untested")
	}
}

// Chance must be Bool for a fixed p: the same outcome on every draw and
// the same stream position afterwards, including the p <= 0 and p >= 1
// cases that consume no draw and NaN, which draws and fails.
func TestChanceMatchesBool(t *testing.T) {
	for _, p := range []float64{-1, 0, 0x1p-60, 0.03, 0.5, 0.96, 1 - 0x1p-53, 1, 2, math.NaN()} {
		c := NewChance(p)
		a, b := New(61), New(61)
		for i := 0; i < 20000; i++ {
			if got, want := c.DrawFrom(a), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Chance %v, Bool %v", p, i, got, want)
			}
			if a.state != b.state {
				t.Fatalf("p=%v draw %d: Chance left the stream at %#x, Bool at %#x", p, i, a.state, b.state)
			}
		}
		if !c.draw || c.cut == 0 {
			continue
		}
		// The lattice edge: the last success and the first failure.
		for _, m := range []uint64{c.cut - 1, c.cut, c.cut + 1} {
			if m >= 1<<53 {
				continue
			}
			if got, want := m < c.cut, float64(m)/(1<<53) < p; got != want {
				t.Fatalf("p=%v m=%d: lattice %v, float %v", p, m, got, want)
			}
		}
	}
}

// AtMost must be the lattice form of u <= x at, and on either side of,
// the threshold it returns.
func TestAtMostMatchesFloat(t *testing.T) {
	for _, x := range []float64{0, 0x1p-60, 0.1, 0.3, 1.0 / 3, 0.5, 0.6, 1 - 0x1p-53, 1} {
		cut := AtMost(x)
		for _, m := range []uint64{cut - 1, cut, cut + 1} {
			if m >= 1<<53 {
				continue
			}
			if got, want := m <= cut, float64(m)/(1<<53) <= x; got != want {
				t.Fatalf("x=%v m=%d: lattice %v, float %v", x, m, got, want)
			}
		}
	}
}

// NewZipf builds one table per (n, s) however many callers ask for it
// at once, and a repeated call returns that table without allocating.
func TestZipfTablesShared(t *testing.T) {
	const callers = 8
	got := make([]*Zipf, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = NewZipf(3001+i%2, 0.77)
		}(i)
	}
	wg.Wait()
	for i, z := range got {
		if z != got[i%2] || z.N() != 3001+i%2 {
			t.Fatalf("caller %d got another table for n=%d", i, 3001+i%2)
		}
	}
	if NewZipf(3001, 0.78) == got[0] {
		t.Fatal("NewZipf(3001, 0.78) returned the s=0.77 table")
	}
	if allocs := testing.AllocsPerRun(100, func() { NewZipf(3001, 0.77) }); allocs != 0 {
		t.Fatalf("repeated NewZipf allocated %v times per call", allocs)
	}
}

// Property: Intn is always in range for any positive n and any seed.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		nn := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 32; i++ {
			v := s.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: equal seeds always produce equal streams.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
