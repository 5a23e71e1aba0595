package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean=%g want 5", m)
	}
	// Unbiased variance of this classic set is 32/7.
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance=%g want %g", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev=%g", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("degenerate inputs must give zero moments")
	}
}

func TestCoefficientOfVariationPaperFig1(t *testing.T) {
	// Fig. 1: (mu=0.5, sigma=0.01) and (mu=5, sigma=0.1) both have
	// variability 0.02 — the paper's argument for using sigma instead.
	left := Normal{Mu: 0.5, Sigma: 0.01}
	right := Normal{Mu: 5, Sigma: 0.1}
	if v := left.Variability(); !almostEq(v, 0.02, 1e-12) {
		t.Errorf("left variability %g want 0.02", v)
	}
	if v := right.Variability(); !almostEq(v, 0.02, 1e-12) {
		t.Errorf("right variability %g want 0.02", v)
	}
	if left.Sigma >= right.Sigma {
		t.Error("sigma metric must distinguish the two distributions")
	}
	if !math.IsInf(CoefficientOfVariation(0, 1), 1) {
		t.Error("zero mean nonzero sigma should be +Inf")
	}
	if CoefficientOfVariation(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
}

func TestNormalPDFCDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if p := n.PDF(0); !almostEq(p, 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Errorf("standard normal PDF(0)=%g", p)
	}
	if c := n.CDF(0); !almostEq(c, 0.5, 1e-12) {
		t.Errorf("CDF(0)=%g want 0.5", c)
	}
	if c := n.CDF(1.96); !almostEq(c, 0.975, 1e-3) {
		t.Errorf("CDF(1.96)=%g want ~0.975", c)
	}
	d := Normal{Mu: 2, Sigma: 0}
	if d.CDF(1.9) != 0 || d.CDF(2.1) != 1 {
		t.Error("degenerate CDF must be a step at mu")
	}
	if d.PDF(3) != 0 || !math.IsInf(d.PDF(2), 1) {
		t.Error("degenerate PDF must be a spike at mu")
	}
}

func TestThreeSigmaUpper(t *testing.T) {
	n := Normal{Mu: 2.0, Sigma: 0.05}
	if got := n.ThreeSigmaUpper(); !almostEq(got, 2.15, 1e-12) {
		t.Errorf("mu+3sigma=%g want 2.15", got)
	}
}

func TestEstimateRecovers(t *testing.T) {
	g := NewRNG(123)
	want := Normal{Mu: 3.5, Sigma: 0.25}
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = g.Normal(want.Mu, want.Sigma)
	}
	got := Estimate(samples)
	if !almostEq(got.Mu, want.Mu, 0.01) {
		t.Errorf("estimated mu %g want %g", got.Mu, want.Mu)
	}
	if !almostEq(got.Sigma, want.Sigma, 0.01) {
		t.Errorf("estimated sigma %g want %g", got.Sigma, want.Sigma)
	}
}

func TestConvolvePathRSS(t *testing.T) {
	cells := []Normal{
		{Mu: 1, Sigma: 0.3},
		{Mu: 2, Sigma: 0.4},
	}
	p, err := ConvolvePath(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p.Mu, 3, 1e-12) {
		t.Errorf("path mean %g want 3", p.Mu)
	}
	if !almostEq(p.Sigma, 0.5, 1e-12) { // 3-4-5 triangle
		t.Errorf("path sigma %g want 0.5", p.Sigma)
	}
	if _, err := ConvolvePath(nil); err == nil {
		t.Error("empty path must error")
	}
}

func TestConvolveCorrelatedEndpoints(t *testing.T) {
	cells := []Normal{{Mu: 1, Sigma: 0.2}, {Mu: 1, Sigma: 0.3}, {Mu: 1, Sigma: 0.5}}
	// rho = 1: sigmas add linearly.
	p1, err := ConvolvePathCorrelated(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p1.Sigma, 1.0, 1e-12) {
		t.Errorf("rho=1 sigma %g want 1.0", p1.Sigma)
	}
	// rho = 0 matches ConvolvePath.
	p0, _ := ConvolvePathCorrelated(cells, 0)
	pr, _ := ConvolvePath(cells)
	if !almostEq(p0.Sigma, pr.Sigma, 1e-12) {
		t.Errorf("rho=0 disagrees with RSS: %g vs %g", p0.Sigma, pr.Sigma)
	}
	if _, err := ConvolvePathCorrelated(cells, 1.5); err == nil {
		t.Error("rho outside [-1,1] must error")
	}
}

// Property: for rho in [0,1], path sigma is monotone in rho and bounded by
// the RSS (rho=0) and linear-sum (rho=1) extremes.
func TestConvolveCorrelationMonotoneProperty(t *testing.T) {
	f := func(r8 uint8, s1, s2, s3 uint8) bool {
		rho := float64(r8) / 255
		cells := []Normal{
			{Mu: 1, Sigma: float64(s1)/255 + 0.01},
			{Mu: 1, Sigma: float64(s2)/255 + 0.01},
			{Mu: 1, Sigma: float64(s3)/255 + 0.01},
		}
		p, err := ConvolvePathCorrelated(cells, rho)
		if err != nil {
			return false
		}
		lo, _ := ConvolvePathCorrelated(cells, 0)
		hi, _ := ConvolvePathCorrelated(cells, 1)
		return p.Sigma >= lo.Sigma-1e-12 && p.Sigma <= hi.Sigma+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolvePathMatrix(t *testing.T) {
	cells := []Normal{{Mu: 1, Sigma: 0.3}, {Mu: 2, Sigma: 0.4}}
	id := [][]float64{{1, 0}, {0, 1}}
	p, err := ConvolvePathMatrix(cells, id)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p.Sigma, 0.5, 1e-12) {
		t.Errorf("identity matrix sigma %g want 0.5", p.Sigma)
	}
	full := [][]float64{{1, 1}, {1, 1}}
	pf, err := ConvolvePathMatrix(cells, full)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(pf.Sigma, 0.7, 1e-12) {
		t.Errorf("full correlation sigma %g want 0.7", pf.Sigma)
	}
	if _, err := ConvolvePathMatrix(cells, [][]float64{{1}}); err == nil {
		t.Error("dimension mismatch must error")
	}
	if _, err := ConvolvePathMatrix(cells, [][]float64{{1, 0}, {0}}); err == nil {
		t.Error("ragged matrix must error")
	}
	if _, err := ConvolvePathMatrix(nil, nil); err == nil {
		t.Error("empty cells must error")
	}
}

// Property: matrix convolution with a constant off-diagonal rho equals the
// scalar-rho convolution (eq. 8 specializes to eq. 9).
func TestMatrixMatchesScalarRhoProperty(t *testing.T) {
	f := func(r8 uint8, sigs [4]uint8) bool {
		rho := float64(r8) / 255
		cells := make([]Normal, 4)
		for i, s := range sigs {
			cells[i] = Normal{Mu: float64(i), Sigma: float64(s)/255 + 0.01}
		}
		m := make([][]float64, 4)
		for i := range m {
			m[i] = make([]float64, 4)
			for j := range m[i] {
				if i == j {
					m[i][j] = 1
				} else {
					m[i][j] = rho
				}
			}
		}
		a, err1 := ConvolvePathMatrix(cells, m)
		b, err2 := ConvolvePathCorrelated(cells, rho)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(a.Sigma, b.Sigma, 1e-9) && almostEq(a.Mu, b.Mu, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveDesign(t *testing.T) {
	paths := []Normal{{Mu: 1, Sigma: 3}, {Mu: 2, Sigma: 4}}
	d, err := ConvolveDesign(paths)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d.Mu, 3, 1e-12) || !almostEq(d.Sigma, 5, 1e-12) {
		t.Errorf("design %+v want mu=3 sigma=5", d)
	}
	if _, err := ConvolveDesign(nil); err == nil {
		t.Error("empty design must error")
	}
}

func TestNormalSum(t *testing.T) {
	a := Normal{Mu: 1, Sigma: 3}
	b := Normal{Mu: 2, Sigma: 4}
	s := a.Sum(b)
	if !almostEq(s.Mu, 3, 1e-12) || !almostEq(s.Sigma, 5, 1e-12) {
		t.Errorf("Sum=%+v", s)
	}
}

// Property: identical-cell paths follow the sqrt(n) law of eq. (10): a
// path of n identical cells has sigma = sqrt(n) * cellSigma.
func TestSqrtNLawProperty(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%30) + 1
		sig := float64(sRaw)/255 + 0.01
		cells := make([]Normal, n)
		for i := range cells {
			cells[i] = Normal{Mu: 1, Sigma: sig}
		}
		p, err := ConvolvePath(cells)
		if err != nil {
			return false
		}
		return almostEq(p.Sigma, math.Sqrt(float64(n))*sig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	fa, fb := NewRNG(99).ForkNamed("x"), NewRNG(99).ForkNamed("x")
	if fa.Float64() != fb.Float64() {
		t.Fatal("same-named forks diverged")
	}
	if NewRNG(99).ForkNamed("x").Float64() == NewRNG(99).ForkNamed("y").Float64() {
		t.Fatal("differently-named forks should (almost surely) differ")
	}
}

func TestForkNamedIgnoresConsumption(t *testing.T) {
	a := NewRNG(5)
	a.Float64()
	a.Float64()
	b := NewRNG(5)
	if a.ForkNamed("cell").Float64() != b.ForkNamed("cell").Float64() {
		t.Fatal("ForkNamed must not depend on parent stream position")
	}
}

func TestRNGHelpers(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	p := g.Perm(5)
	seen := make(map[int]bool)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Perm not a permutation: %v", p)
	}
	if g.StandardNormal() == g.StandardNormal() {
		t.Error("successive normals identical (vanishingly unlikely)")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d count %d want 1", i, c)
		}
	}
	h.Add(-5) // clamps to first bin
	h.Add(50) // clamps to last bin
	if h.Counts[0] != 2 || h.Counts[9] != 2 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
	if h.N != 12 {
		t.Errorf("N=%d want 12", h.N)
	}
	if c := h.BinCenter(0); !almostEq(c, 0.5, 1e-12) {
		t.Errorf("BinCenter(0)=%g want 0.5", c)
	}
}

func TestHistogramOf(t *testing.T) {
	h, err := HistogramOf([]float64{1, 2, 3, 4, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 5 {
		t.Errorf("N=%d", h.N)
	}
	if h.Lo != 1 || h.Hi != 5 {
		t.Errorf("range [%g,%g] want [1,5]", h.Lo, h.Hi)
	}
	// Degenerate all-equal samples.
	d, err := HistogramOf([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 3 {
		t.Errorf("degenerate N=%d", d.N)
	}
	e, err := HistogramOf(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.N != 0 {
		t.Errorf("empty N=%d", e.N)
	}
}

func TestHistogramInvalidInputs(t *testing.T) {
	// Input validation returns errors, never panics (robustness PR).
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("bins=0 must error")
	}
	if _, err := NewHistogram(5, 5, 4); err == nil {
		t.Error("empty range must error")
	}
	if _, err := NewHistogram(7, 2, 4); err == nil {
		t.Error("inverted range must error")
	}
	if _, err := NewHistogram(math.NaN(), 1, 4); err == nil {
		t.Error("NaN bound must error")
	}
	if _, err := HistogramOf([]float64{1, math.NaN(), 3}, 4); err == nil {
		t.Error("NaN sample must error")
	}
	if _, err := HistogramOf([]float64{1, 2, 3}, -1); err == nil {
		t.Error("negative bins must error")
	}
}

func TestHistogramModeAndRender(t *testing.T) {
	h, err := NewHistogram(0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1.5)
	h.Add(1.6)
	h.Add(0.5)
	if m := h.Mode(); !almostEq(m, 1.5, 1e-12) {
		t.Errorf("Mode=%g want 1.5", m)
	}
	r := h.Render(20)
	if len(r) == 0 {
		t.Error("empty render")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0=%g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1=%g", q)
	}
	if q := Quantile(xs, 0.5); !almostEq(q, 3, 1e-12) {
		t.Errorf("median=%g want 3", q)
	}
	if q := Quantile(xs, 0.25); !almostEq(q, 2, 1e-12) {
		t.Errorf("q25=%g want 2", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

// naiveOnePass is the textbook E[x²]−mean² variance formula — the
// numerically unsafe single-pass alternative the package deliberately
// does not use. It exists here only to demonstrate the failure mode the
// regression inputs below provoke.
func naiveOnePass(xs []float64) (mean, sigma float64) {
	n := float64(len(xs))
	var s, sq float64
	for _, x := range xs {
		s += x
		sq += x * x
	}
	mean = s / n
	v := (sq - n*mean*mean) / (n - 1)
	return mean, math.Sqrt(v)
}

// cancellationSamples builds the catastrophic-cancellation regression
// input: 50 samples (the characterization default) with a huge mean and
// a tiny spread, the shape of a delay entry measured in femtoseconds
// with picosecond-scale mismatch.
func cancellationSamples() []float64 {
	// mean/spread = 1e9: far past where E[x²]−mean² cancels (x² needs
	// ~18 extra digits), while x−mean still resolves the offsets to
	// ~1e-7 relative, so the two-pass algorithm stays accurate.
	const mean, spread = 1e6, 1e-3
	xs := make([]float64, 50)
	for i := range xs {
		// Deterministic, symmetric offsets in [-spread, +spread].
		xs[i] = mean + spread*(float64(i%11)-5)/5
	}
	return xs
}

func TestMeanStdDevCancellationProne(t *testing.T) {
	xs := cancellationSamples()

	// Exact sigma of the offset pattern, computed at small scale where
	// float64 has plenty of headroom.
	small := make([]float64, len(xs))
	for i, x := range xs {
		small[i] = x - 1e6
	}
	wantMean, want := MeanStdDev(small)
	wantMean += 1e6
	if want <= 0 {
		t.Fatalf("degenerate reference sigma %g", want)
	}

	m, s := MeanStdDev(xs)
	if math.Abs(m-wantMean) > 1e-12*wantMean {
		t.Errorf("two-pass mean = %v, want %v", m, wantMean)
	}
	if rel := math.Abs(s-want) / want; rel > 1e-9 {
		t.Errorf("two-pass sigma = %v, want %v (rel err %g)", s, want, rel)
	}

	// The one-pass formula must actually fail on this input — otherwise
	// the regression test isn't exercising the cancellation regime.
	if _, naive := naiveOnePass(xs); math.Abs(naive-want)/want < 0.5 {
		t.Errorf("naive one-pass sigma %v unexpectedly close to %v; inputs no longer cancellation-prone", naive, want)
	}
}
