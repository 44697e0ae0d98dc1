package sim

// Regression extrapolation for interval sampling. Per-interval cycle
// counts are only observed for the detailed (sampled) intervals, but
// the covariates that drive them — instructions retired, privileged
// instructions, off-load round-trips — are pure functions of the trace
// and the policy decision sequence, so functional warming observes them
// exactly for every interval. Fitting cycles against those covariates
// on the sampled intervals and evaluating the fit at the known
// population totals (the classic survey-sampling regression estimator)
// removes the variance contributed by the covariates' uneven spread
// across windows, which is the dominant noise source: whether a given
// window happens to contain an expensive system call or an off-load
// round-trip moves its cycle count far more than cache-state noise
// does.

// olsMinSamples is the smallest sample count worth fitting; below it
// the collector falls back to the plain ratio-of-sums estimator.
const olsMinSamples = 12

// olsTotal fits y ≈ β·x over the sampled rows and returns β·xTot — the
// regression estimate of the population total of y. Each x row and
// xTot must share the same length (include a leading 1 and make
// xTot[0] the population row count to fit an intercept). Covariates
// with no variation (or exact collinearity) are pinned to a zero
// coefficient rather than failing. Returns ok=false when there are too
// few rows to fit.
func olsTotal(xs [][]float64, ys []float64, xTot []float64) (total float64, ok bool) {
	n := len(xs)
	if n < olsMinSamples || n != len(ys) {
		return 0, false
	}
	k := len(xTot)

	// Normal equations A β = b with A = XᵀX, b = Xᵀy.
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
	}
	b := make([]float64, k)
	for r, x := range xs {
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				a[i][j] += float64(x[i] * x[j])
			}
			b[i] += float64(x[i] * ys[r])
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}

	// Gauss-Jordan without pivoting — the matrix is symmetric positive
	// semi-definite, so diagonal pivots are safe. A pivot that collapses
	// relative to its original magnitude marks a dead or collinear
	// covariate; its coefficient is pinned to zero so the fit degrades
	// gracefully instead of exploding.
	scale := make([]float64, k)
	for i := 0; i < k; i++ {
		scale[i] = a[i][i]
	}
	beta := b
	for i := 0; i < k; i++ {
		p := a[i][i]
		if p <= 0 || (scale[i] > 0 && p < 1e-12*scale[i]) {
			for j := 0; j < k; j++ {
				a[i][j] = 0
				a[j][i] = 0
			}
			a[i][i] = 1
			beta[i] = 0
			continue
		}
		inv := 1 / p
		for j := 0; j < k; j++ {
			a[i][j] *= inv
		}
		beta[i] *= inv
		for r := 0; r < k; r++ {
			if r == i {
				continue
			}
			f := a[r][i]
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				a[r][j] -= float64(f * a[i][j])
			}
			beta[r] -= float64(f * beta[i])
		}
	}

	for i := 0; i < k; i++ {
		total += float64(beta[i] * xTot[i])
	}
	return total, true
}
