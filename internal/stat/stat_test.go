package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{2, 0.9772498680518208},
	}
	for _, c := range cases {
		if got := n.CDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 3}
	for _, p := range []float64{0.003, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.997} {
		x := n.Quantile(p)
		if got := n.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	ln, err := LogNormalFromMoments(10e-9, 0.5e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Mean(); math.Abs(got-10e-9) > 1e-15 {
		t.Errorf("Mean = %g, want 10e-9", got)
	}
	if got := ln.StdDev(); math.Abs(got-0.5e-9) > 1e-14 {
		t.Errorf("StdDev = %g, want 0.5e-9", got)
	}
	if _, err := LogNormalFromMoments(-1, 1); err == nil {
		t.Error("accepted negative mean")
	}
	if _, err := LogNormalFromMoments(1, 0); err == nil {
		t.Error("accepted zero std")
	}
}

func TestLogNormalSampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ln := LogNormal{Mu: 1.0, Sigma: 0.4}
	n := 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = ln.Sample(rng)
	}
	if got, want := Mean(samples), ln.Mean(); math.Abs(got-want)/want > 0.01 {
		t.Errorf("sample mean = %g, want ≈ %g", got, want)
	}
	if got, want := StdDev(samples), ln.StdDev(); math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample std = %g, want ≈ %g", got, want)
	}
}

func TestFitLogNormalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := LogNormal{Mu: rng.Float64()*4 - 2, Sigma: 0.05 + rng.Float64()}
		samples := make([]float64, 20000)
		for i := range samples {
			samples[i] = truth.Sample(rng)
		}
		fit, err := FitLogNormal(samples)
		if err != nil {
			return false
		}
		return math.Abs(fit.Mu-truth.Mu) < 0.05 && math.Abs(fit.Sigma-truth.Sigma) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestFitLogNormalErrors(t *testing.T) {
	if _, err := FitLogNormal([]float64{1}); err == nil {
		t.Error("accepted one sample")
	}
	if _, err := FitLogNormal([]float64{1, -2}); err == nil {
		t.Error("accepted negative sample")
	}
	if _, err := FitLogNormal([]float64{1, math.NaN()}); err == nil {
		t.Error("accepted NaN sample")
	}
}

func TestLogNormalQuantileInvertsCDF(t *testing.T) {
	ln := LogNormal{Mu: 0.5, Sigma: 0.7}
	for _, p := range []float64{0.003, 0.1, 0.5, 0.9, 0.997} {
		x := ln.Quantile(p)
		if got := ln.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
	if got := ln.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %g, want 0", got)
	}
	if got := ln.Median(); math.Abs(got-math.Exp(0.5)) > 1e-12 {
		t.Errorf("Median = %g", got)
	}
}

func TestWilkinsonSumMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	terms := []LogNormal{
		{Mu: 0.1, Sigma: 0.3},
		{Mu: -0.5, Sigma: 0.5},
		{Mu: 0.4, Sigma: 0.2},
	}
	approx, err := WilkinsonSum(terms)
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	sums := make([]float64, n)
	for i := range sums {
		s := 0.0
		for _, tm := range terms {
			s += tm.Sample(rng)
		}
		sums[i] = s
	}
	if got, want := approx.Mean(), Mean(sums); math.Abs(got-want)/want > 0.02 {
		t.Errorf("Wilkinson mean = %g, MC mean = %g", got, want)
	}
	if got, want := approx.StdDev(), StdDev(sums); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Wilkinson std = %g, MC std = %g", got, want)
	}
	ecdf, err := NewECDF(sums)
	if err != nil {
		t.Fatal(err)
	}
	if d := ecdf.KSDistance(approx.CDF); d > 0.03 {
		t.Errorf("KS distance between Wilkinson approx and MC sum = %g, want < 0.03", d)
	}
}

func TestWilkinsonSumSingleTermIsIdentity(t *testing.T) {
	ln := LogNormal{Mu: 1.2, Sigma: 0.6}
	got, err := WilkinsonSum([]LogNormal{ln})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-ln.Mu) > 1e-9 || math.Abs(got.Sigma-ln.Sigma) > 1e-9 {
		t.Errorf("WilkinsonSum of one term = %+v, want %+v", got, ln)
	}
	if _, err := WilkinsonSum(nil); err == nil {
		t.Error("accepted empty sum")
	}
}

func TestECDFBasics(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d", e.Len())
	}
	if got := e.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %g, want 0", got)
	}
	if got := e.At(2); got != 0.5 {
		t.Errorf("At(2) = %g, want 0.5", got)
	}
	if got := e.At(4); got != 1 {
		t.Errorf("At(4) = %g, want 1", got)
	}
	if e.Min() != 1 || e.Max() != 4 {
		t.Errorf("Min/Max = %g/%g", e.Min(), e.Max())
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("accepted empty sample set")
	}
}

func TestECDFPercentile(t *testing.T) {
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = float64(i)
	}
	e, err := NewECDF(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := e.Percentile(p), 100*p; math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if got := e.Percentile(-1); got != 0 {
		t.Errorf("Percentile(-1) = %g", got)
	}
	if got := e.Percentile(2); got != 100 {
		t.Errorf("Percentile(2) = %g", got)
	}
}

func TestECDFPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		e, err := NewECDF(samples)
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.01 {
			v := e.Percentile(p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKSDistanceOfMatchingDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ln := LogNormal{Mu: 0, Sigma: 0.5}
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = ln.Sample(rng)
	}
	e, err := NewECDF(samples)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.KSDistance(ln.CDF); d > 0.02 {
		t.Errorf("KS distance to own distribution = %g, want small", d)
	}
	other := LogNormal{Mu: 1, Sigma: 0.5}
	if d := e.KSDistance(other.CDF); d < 0.3 {
		t.Errorf("KS distance to shifted distribution = %g, want large", d)
	}
}

func TestErfcInvEdges(t *testing.T) {
	if !math.IsInf(erfcInv(0), 1) {
		t.Error("erfcInv(0) not +Inf")
	}
	if !math.IsInf(erfcInv(2), -1) {
		t.Error("erfcInv(2) not -Inf")
	}
	if !math.IsNaN(erfcInv(-0.1)) || !math.IsNaN(erfcInv(2.1)) {
		t.Error("erfcInv outside [0,2] not NaN")
	}
	for _, x := range []float64{1e-6, 0.01, 0.3, 1, 1.7, 1.99} {
		if got := math.Erfc(erfcInv(x)); math.Abs(got-x) > 1e-10 {
			t.Errorf("Erfc(erfcInv(%g)) = %g", x, got)
		}
	}
}

// TestBootstrapPercentileCI and TestBootstrapValidation keep the names
// of the bootstrap interval that the order-statistic ECDF.PercentileCI
// replaced; they check the same median and tail cases and input ranges.
func TestBootstrapPercentileCI(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ln := LogNormal{Mu: 0, Sigma: 0.3}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = ln.Sample(rng)
	}
	e, err := NewECDF(samples)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := e.PercentileCI(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth := ln.Median()
	if lo.Missing() || hi.Missing() || !(lo.Value < truth && truth < hi.Value) {
		t.Errorf("95%% CI [%+v, %+v] misses true median %g", lo, hi, truth)
	}
	// The ranks from exact integer binomial sums: P(B ≤ 227) ≤ 0.025 <
	// P(B ≤ 228) and P(B ≤ 271) < 0.975 ≤ P(B ≤ 272) for B ~ Binomial(500, ½).
	if lo.K != 228 || hi.K != 273 {
		t.Errorf("median interval ranks [%d, %d], want [228, 273]", lo.K, hi.K)
	}
	// The worst-case percentile of the paper's 500 trials: the 97.5 %
	// upper bound is the fifth-smallest sample, and no order statistic
	// gives the lower bound until N = 1228.
	loT, hiT, err := e.PercentileCI(0.003, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !loT.Missing() || loT.Need != 1228 {
		t.Errorf("lower bound = %+v, want missing with Need 1228", loT)
	}
	if hiT.K != 5 || hiT.Value != e.Values()[4] {
		t.Errorf("upper bound = %+v, want X_(5) = %g", hiT, e.Values()[4])
	}
}

func TestBootstrapValidation(t *testing.T) {
	e, err := NewECDF([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.PercentileCI(0, 0.95); err == nil {
		t.Error("accepted p = 0")
	}
	if _, _, err := e.PercentileCI(-0.1, 0.95); err == nil {
		t.Error("accepted negative percentile")
	}
	if _, _, err := e.PercentileCI(0.5, 1.5); err == nil {
		t.Error("accepted conf > 1")
	}
	// Upper bounds of a high quantile go missing the same way.
	one, _ := NewECDF([]float64{1})
	if _, hi, _ := one.PercentileCI(0.99, 0.95); !hi.Missing() || hi.Need != 368 {
		t.Errorf("one-sample upper bound of the 0.99 quantile = %+v, want missing with Need 368", hi)
	}
}

// TestPercentileCICoverage draws repeated lognormal samples (σ = 0.5) and
// counts how often the interval holds the true 0.3-percentile. The
// order-statistic interval's coverage is exactly P(r ≤ count < s) for the
// Binomial(N, p) count of samples below the quantile, at least the nominal
// level, so the observed rate must land within binomial error of it. At
// N = 500 only the upper bound exists, so the nominal level is one-sided.
func TestPercentileCICoverage(t *testing.T) {
	const (
		p     = 0.003
		conf  = 0.95
		reps  = 2000
		sigma = 0.5
	)
	ln := LogNormal{Mu: 0, Sigma: sigma}
	q := ln.Quantile(p)
	for _, tc := range []struct {
		n       int
		seed    int64
		nominal float64
	}{
		{500, 1, 1 - (1-conf)/2},
		{2000, 2, conf},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		samples := make([]float64, tc.n)
		covered := 0
		var lo, hi Bound
		for r := 0; r < reps; r++ {
			for i := range samples {
				samples[i] = ln.Sample(rng)
			}
			e, err := NewECDF(samples)
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi, err = e.PercentileCI(p, conf); err != nil {
				t.Fatal(err)
			}
			if (lo.Missing() || lo.Value <= q) && !hi.Missing() && q <= hi.Value {
				covered++
			}
		}
		if lo.Missing() != (tc.n < 1228) || hi.Missing() {
			t.Fatalf("N=%d: bounds %+v, %+v", tc.n, lo, hi)
		}
		// Exact coverage: P(lo.K ≤ count ≤ hi.K−1), count ~ Binomial(n, p).
		exact := 0.0
		lc, _ := math.Lgamma(float64(tc.n + 1))
		for k := lo.K; k < hi.K; k++ {
			lk, _ := math.Lgamma(float64(k + 1))
			lnk, _ := math.Lgamma(float64(tc.n - k + 1))
			exact += math.Exp(lc - lk - lnk + float64(k)*math.Log(p) + float64(tc.n-k)*math.Log1p(-p))
		}
		if exact < tc.nominal {
			t.Errorf("N=%d: exact coverage %.4f below nominal %.3f", tc.n, exact, tc.nominal)
		}
		got := float64(covered) / reps
		se := math.Sqrt(exact * (1 - exact) / reps)
		if math.Abs(got-exact) > 4*se || got < tc.nominal-3*se {
			t.Errorf("N=%d: coverage %.4f, exact %.4f (nominal %.3f, se %.4f)", tc.n, got, exact, tc.nominal, se)
		}
		t.Logf("N=%d: interval [X_(%d), X_(%d)] covered %.4f (exact %.4f, nominal %.3f)", tc.n, lo.K, hi.K, got, exact, tc.nominal)
	}
}
