// Package dist provides the probability and statistics substrate of the
// reproduction: descriptive statistics, the coefficient-of-variation
// metric the paper argues against (Section III, Fig. 1), deterministic
// Gaussian sampling for Monte Carlo characterization, histograms, and the
// convolution of cell timing distributions into path and design
// distributions (paper eqs. 5-11).
package dist

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (N-1) sample variance of xs; slices with
// fewer than two elements have zero variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStdDev returns the sample mean and the unbiased sample standard
// deviation, computed with the classic two-pass formulas: mean first,
// then the sum of squared deviations from it. The accumulation order is
// slice order in both passes. That order is a contract: the statistical
// library fold (statlib) streams the exact same two passes without a
// buffer, and the pipeline's bit-identity guarantee depends on the sums
// associating identically. The two-pass form is numerically safe on
// near-constant samples (large mean, tiny sigma) where the textbook
// one-pass E[x²]−mean² formula cancels catastrophically.
func MeanStdDev(xs []float64) (mean, sigma float64) {
	return Mean(xs), StdDev(xs)
}

// CoefficientOfVariation returns sigma/mean (paper eq. 1), the
// "variability" metric used in industry for gate delay variation. The
// paper shows (Fig. 1) that it is the wrong selection metric for library
// tuning: two distributions with identical variability can have very
// different absolute dispersion. Returns +Inf for a zero mean with
// nonzero sigma and 0 for a degenerate zero/zero case.
func CoefficientOfVariation(mean, sigma float64) float64 {
	if mean == 0 {
		if sigma == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sigma / mean
}

// Normal is a normal (Gaussian) distribution parameterized by its mean
// and standard deviation.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Variability returns the distribution's coefficient of variation (eq. 1).
func (n Normal) Variability() float64 { return CoefficientOfVariation(n.Mu, n.Sigma) }

// PDF evaluates the probability density function at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x == n.Mu {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF evaluates the cumulative distribution function at x.
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// ThreeSigmaUpper returns mu + 3*sigma, the worst-case delay bound the
// paper plots in Fig. 14.
func (n Normal) ThreeSigmaUpper() float64 { return n.Mu + 3*n.Sigma }

// Estimate fits a Normal to samples by the sample mean and unbiased
// standard deviation.
func Estimate(samples []float64) Normal {
	m, s := MeanStdDev(samples)
	return Normal{Mu: m, Sigma: s}
}

// Sum returns the distribution of the sum of two independent normals.
func (n Normal) Sum(o Normal) Normal {
	return Normal{Mu: n.Mu + o.Mu, Sigma: math.Hypot(n.Sigma, o.Sigma)}
}

// ErrNoCells is returned when a path convolution is requested over zero
// cells.
var ErrNoCells = errors.New("dist: convolution over zero distributions")

// ConvolvePath combines per-cell delay distributions into a path delay
// distribution under the paper's model: means add (eq. 5) and, with the
// correlation between distinct cells assumed zero (the paper's ρ=0
// simplification), variances add (eq. 10).
func ConvolvePath(cells []Normal) (Normal, error) {
	return ConvolvePathCorrelated(cells, 0)
}

// ConvolvePathCorrelated implements the general eq. (9): all distinct cell
// pairs share a single correlation coefficient rho. rho must lie in
// [-1, 1]. With rho=0 this reduces to the root-sum-square of eq. (10);
// with rho=1 sigmas add linearly.
func ConvolvePathCorrelated(cells []Normal, rho float64) (Normal, error) {
	if len(cells) == 0 {
		return Normal{}, ErrNoCells
	}
	var m Moments
	for _, c := range cells {
		m = m.Add(c)
	}
	return m.Correlated(rho)
}

// Moments are the running sums eq. (9) folds a path into: the sum of
// the cell means, of their variances and of their sigmas. Adding a
// path's cells in order and then calling Correlated is exactly
// ConvolvePathCorrelated, so paths that share a prefix can share its
// moments.
type Moments struct{ Mu, SumVar, SumSigma float64 }

// Add returns the moments of the path extended by one cell.
func (m Moments) Add(c Normal) Moments {
	return Moments{Mu: m.Mu + c.Mu, SumVar: m.SumVar + c.Sigma*c.Sigma, SumSigma: m.SumSigma + c.Sigma}
}

// Correlated is the path distribution of eq. (9), all distinct cell
// pairs sharing the correlation rho in [-1, 1].
func (m Moments) Correlated(rho float64) (Normal, error) {
	if rho < -1 || rho > 1 {
		return Normal{}, errors.New("dist: correlation outside [-1,1]")
	}
	// var = sum(sigma_i^2) + rho * sum_{i != j} sigma_i*sigma_j
	//     = sum(sigma_i^2) + rho * ((sum sigma_i)^2 - sum sigma_i^2)
	v := m.SumVar + rho*(m.SumSigma*m.SumSigma-m.SumVar)
	if v < 0 {
		v = 0 // negative rho can drive tiny negative rounding residue
	}
	return Normal{Mu: m.Mu, Sigma: math.Sqrt(v)}, nil
}

// ConvolvePathMatrix implements eq. (8) with a full correlation matrix:
// var = sum_i sum_j sigma_i * sigma_j * rho_ij. The matrix must be square
// with dimension len(cells); its diagonal is taken as 1 regardless of the
// stored values (cii is the covariance of a cell with itself, eq. 7).
func ConvolvePathMatrix(cells []Normal, rho [][]float64) (Normal, error) {
	n := len(cells)
	if n == 0 {
		return Normal{}, ErrNoCells
	}
	if len(rho) != n {
		return Normal{}, errors.New("dist: correlation matrix dimension mismatch")
	}
	mu := 0.0
	v := 0.0
	for i := 0; i < n; i++ {
		if len(rho[i]) != n {
			return Normal{}, errors.New("dist: correlation matrix not square")
		}
		mu += cells[i].Mu
		for j := 0; j < n; j++ {
			r := rho[i][j]
			if i == j {
				r = 1
			}
			v += cells[i].Sigma * cells[j].Sigma * r
		}
	}
	if v < 0 {
		v = 0
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(v)}, nil
}

// ConvolveDesign combines per-path distributions into the design-level
// distribution of eq. (11): the design mean is the sum of path means and
// the design sigma the root-sum-square of path sigmas. Like the paths in
// eq. (11) the inputs are treated as independent.
func ConvolveDesign(paths []Normal) (Normal, error) {
	if len(paths) == 0 {
		return Normal{}, ErrNoCells
	}
	mu := 0.0
	v := 0.0
	for _, p := range paths {
		mu += p.Mu
		v += p.Sigma * p.Sigma
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(v)}, nil
}
