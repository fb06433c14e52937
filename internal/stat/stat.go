// Package stat provides the probability machinery used by the EM reliability
// models: lognormal and normal distributions with seeded sampling, maximum-
// likelihood lognormal fitting, empirical CDFs with percentile queries, and
// Wilkinson's moment-matching approximation for combining lognormals.
//
// All sampling goes through a caller-owned *rand.Rand so every experiment in
// the repository is reproducible from its seed.
package stat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Normal is a Gaussian distribution with mean Mu and standard deviation
// Sigma.
type Normal struct {
	Mu, Sigma float64
}

// Sample draws one variate.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// CDF evaluates P(X ≤ x).
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the p-quantile, p ∈ (0, 1).
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*math.Sqrt2*erfcInv(2*(1-p))
}

// LogNormal is the distribution of exp(N(Mu, Sigma²)): the paper's model for
// flaw radii, critical stress and (via Wilkinson) TTF.
type LogNormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // std dev of ln X, > 0
}

// LogNormalFromMoments builds the lognormal with the given arithmetic mean m
// and standard deviation s (both > 0). This is how the paper specifies the
// flaw-radius distribution: mean 10 nm, σ = 5 % of mean.
func LogNormalFromMoments(m, s float64) (LogNormal, error) {
	if m <= 0 || s <= 0 {
		return LogNormal{}, fmt.Errorf("stat: lognormal moments must be positive, got mean %g std %g", m, s)
	}
	v := math.Log(1 + (s*s)/(m*m))
	return LogNormal{Mu: math.Log(m) - v/2, Sigma: math.Sqrt(v)}, nil
}

// Mean returns the arithmetic mean exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Median returns exp(Mu).
func (l LogNormal) Median() float64 { return math.Exp(l.Mu) }

// StdDev returns the arithmetic standard deviation.
func (l LogNormal) StdDev() float64 {
	s2 := l.Sigma * l.Sigma
	return l.Mean() * math.Sqrt(math.Expm1(s2))
}

// Sample draws one variate.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// CDF evaluates P(X ≤ x); zero for x ≤ 0.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: l.Mu, Sigma: l.Sigma}.CDF(math.Log(x))
}

// Quantile returns the p-quantile, p ∈ (0, 1).
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(Normal{Mu: l.Mu, Sigma: l.Sigma}.Quantile(p))
}

// FitLogNormal computes the maximum-likelihood lognormal fit of positive
// samples: Mu and Sigma are the sample mean and (population) standard
// deviation of the logs. It needs at least two samples and all positive.
func FitLogNormal(samples []float64) (LogNormal, error) {
	if len(samples) < 2 {
		return LogNormal{}, fmt.Errorf("stat: need ≥ 2 samples to fit a lognormal, got %d", len(samples))
	}
	var sum, sum2 float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return LogNormal{}, fmt.Errorf("stat: lognormal fit requires positive finite samples, got %g", x)
		}
		lx := math.Log(x)
		sum += lx
		sum2 += lx * lx
	}
	n := float64(len(samples))
	mu := sum / n
	v := sum2/n - mu*mu
	if v < 0 {
		v = 0
	}
	return LogNormal{Mu: mu, Sigma: math.Sqrt(v)}, nil
}

// WilkinsonSum approximates the distribution of the sum of independent
// lognormals as a lognormal by matching the first two moments (Wilkinson's
// approximation, the closure the paper invokes to argue TTF remains
// lognormal). It requires at least one term.
func WilkinsonSum(terms []LogNormal) (LogNormal, error) {
	if len(terms) == 0 {
		return LogNormal{}, fmt.Errorf("stat: WilkinsonSum of no terms")
	}
	var m1, m2 float64
	for _, t := range terms {
		mean := t.Mean()
		m1 += mean
		// E[X²] = exp(2Mu + 2Sigma²)
		m2 += math.Exp(2*t.Mu + 2*t.Sigma*t.Sigma)
		// Independence: cross terms E[Xi]E[Xj] added below.
	}
	// E[(ΣX)²] = Σ E[X²] + Σ_{i≠j} E[Xi]E[Xj]
	var cross float64
	for i := range terms {
		for j := range terms {
			if i != j {
				cross += terms[i].Mean() * terms[j].Mean()
			}
		}
	}
	m2 += cross
	sigma2 := math.Log(m2 / (m1 * m1))
	if sigma2 < 0 {
		sigma2 = 0
	}
	return LogNormal{Mu: math.Log(m1) - sigma2/2, Sigma: math.Sqrt(sigma2)}, nil
}

// ECDF is an empirical cumulative distribution function over a fixed sample
// set.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples. It needs at least one sample.
func NewECDF(samples []float64) (*ECDF, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("stat: ECDF of no samples")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// At evaluates the empirical CDF at x: the fraction of samples ≤ x.
func (e *ECDF) At(x float64) float64 {
	return float64(sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))) / float64(len(e.sorted))
}

// Percentile returns the p-quantile, p ∈ [0, 1], with linear interpolation
// between order statistics. The paper's "worst-case TTF" is the 0.003
// percentile (0.3 %ile point).
func (e *ECDF) Percentile(p float64) float64 {
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	pos := p * float64(len(e.sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(e.sorted) {
		return e.sorted[len(e.sorted)-1]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Min and Max return the extreme samples.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Values returns a copy of the sorted samples.
func (e *ECDF) Values() []float64 {
	out := make([]float64, len(e.sorted))
	copy(out, e.sorted)
	return out
}

// KSDistance returns the Kolmogorov–Smirnov statistic between the empirical
// CDF and a reference CDF function: sup_x |F_emp(x) − F(x)| evaluated at the
// sample points (both one-sided gaps are considered).
func (e *ECDF) KSDistance(cdf func(float64) float64) float64 {
	n := float64(len(e.sorted))
	d := 0.0
	for i, x := range e.sorted {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// Bound is one end of an order-statistic confidence interval for a
// quantile: the K-th smallest sample, or, when no order statistic of the
// sample reaches the confidence level on this side, K = 0 and Need, the
// smallest sample size that would.
type Bound struct {
	// K is the 1-based rank of the order statistic giving the bound; 0
	// marks a bound the sample is too small to give.
	K int
	// Value is the K-th smallest sample (0 when the bound is missing).
	Value float64
	// Need is the smallest sample size that gives a missing bound.
	Need int
}

// Missing reports that the sample is too small to give this bound.
func (b Bound) Missing() bool { return b.K == 0 }

// PercentileCI returns the distribution-free confidence interval
// [X_(r), X_(s)] for the p-quantile, p ∈ (0, 1), of the continuous
// distribution behind the samples. The number of samples below the true
// quantile is Binomial(N, p), so each end holds with probability at least
// (1+conf)/2 whatever the distribution, and the interval covers the
// quantile with probability at least conf. It draws no random numbers.
//
// A tail quantile of a small sample has no bound on the side of the nearer
// extreme: at N = 500 and p = 0.003 the 97.5 % upper bound is X_(5), but
// even X_(1) stays below the quantile only with probability 0.78, so the
// lower bound is Missing with Need = 1228.
func (e *ECDF) PercentileCI(p, conf float64) (lo, hi Bound, err error) {
	if !(p > 0 && p < 1 && conf > 0 && conf < 1) {
		return lo, hi, fmt.Errorf("stat: percentile interval needs p and conf in (0,1), got p=%g conf=%g", p, conf)
	}
	n := len(e.sorted)
	alpha := (1 - conf) / 2
	// X_(k+1) ≤ q exactly when more than k samples fall below q, and
	// X_(k+1) ≥ q when at most k do; cdf is P(at most k below q).
	lpmf := float64(n) * math.Log1p(-p)
	logOdds := math.Log(p) - math.Log1p(-p)
	cdf := 0.0
	for k := 0; k < n; k++ {
		cdf += math.Exp(lpmf)
		if cdf <= alpha {
			lo.K = k + 1
		}
		if cdf >= 1-alpha {
			hi.K = k + 1
			break
		}
		lpmf += math.Log(float64(n-k)/float64(k+1)) + logOdds
	}
	if lo.K == 0 {
		lo.Need = int(math.Ceil(math.Log(alpha) / math.Log1p(-p)))
	} else {
		lo.Value = e.sorted[lo.K-1]
	}
	if hi.K == 0 {
		hi.Need = int(math.Ceil(math.Log(alpha) / math.Log(p)))
	} else {
		hi.Value = e.sorted[hi.K-1]
	}
	return lo, hi, nil
}

// Mean returns the sample mean.
func Mean(samples []float64) float64 {
	s := 0.0
	for _, x := range samples {
		s += x
	}
	return s / float64(len(samples))
}

// StdDev returns the population standard deviation of the samples.
func StdDev(samples []float64) float64 {
	m := Mean(samples)
	s := 0.0
	for _, x := range samples {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(samples)))
}

// erfcInv computes the inverse complementary error function by Newton
// iteration on math.Erfc with a rational initial guess; accurate to ~1e-12
// over the useful range.
func erfcInv(x float64) float64 {
	if x <= 0 || x >= 2 {
		switch {
		case x == 0:
			return math.Inf(1)
		case x == 2:
			return math.Inf(-1)
		default:
			return math.NaN()
		}
	}
	// Initial guess via the probit approximation of Acklam.
	z := probit(1 - x/2) // erfcInv(x) = −probit(x/2)/√2 = probit(1−x/2)/√2
	y := z / math.Sqrt2
	// Newton refinement on f(y) = erfc(y) − x; f'(y) = −2/√π·exp(−y²).
	for i := 0; i < 4; i++ {
		f := math.Erfc(y) - x
		df := -2 / math.SqrtPi * math.Exp(-y*y)
		step := f / df
		y -= step
		if math.Abs(step) < 1e-15*(1+math.Abs(y)) {
			break
		}
	}
	return y
}

// probit is the standard normal quantile function (Acklam's rational
// approximation, relative error ~1e-9 before refinement).
func probit(p float64) float64 {
	const (
		a1 = -39.69683028665376
		a2 = 220.9460984245205
		a3 = -275.9285104469687
		a4 = 138.3577518672690
		a5 = -30.66479806614716
		a6 = 2.506628277459239
		b1 = -54.47609879822406
		b2 = 161.5858368580409
		b3 = -155.6989798598866
		b4 = 66.80131188771972
		b5 = -13.28068155288572
		c1 = -0.007784894002430293
		c2 = -0.3223964580411365
		c3 = -2.400758277161838
		c4 = -2.549732539343734
		c5 = 4.374664141464968
		c6 = 2.938163982698783
		d1 = 0.007784695709041462
		d2 = 0.3224671290700398
		d3 = 2.445134137142996
		d4 = 3.754408661907416
	)
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}
