package pdn

import (
	"math"
	"testing"

	"emvia/internal/mc"
	"emvia/internal/stat"
)

// weakestLinkCDF is the exact CDF of the weakest-link grid TTF over the
// arrays in keep (nil = every array): the minimum of independent array
// TTFs, each its pattern's lognormal at the pristine current, so
// F(t) = 1 − Π_k (1 − F_k(t)) (arXiv 1712.05562's chip-level combination).
// The product is summed in log space.
func weakestLinkCDF(cfg TTFConfig, i0 []float64, keep []bool) func(float64) float64 {
	return func(t float64) float64 {
		logSurv := 0.0
		for k, v := range cfg.Grid.Vias {
			if keep != nil && !keep[k] {
				continue
			}
			m := cfg.Models[v.Pattern]
			if s := m.Scale(i0[k]); !math.IsInf(s, 1) {
				logSurv += math.Log1p(-m.Dist.CDF(t / s))
			}
		}
		return -math.Expm1(logSurv)
	}
}

// TestWeakestLinkOracle checks the sampling path of the grid level against
// the physics, with no second Monte Carlo: unmasked, all-candidate masked
// and screened weakest-link runs at fixed seeds must each sit within the
// 1 % Kolmogorov–Smirnov bound 1.63/√N of the exact CDF of the arrays they
// sample. The screen prunes only arrays whose F_k is 0 to double precision
// wherever a weakest-link failure falls, so at every sampled time the
// product over the mortal set equals the full product.
func TestWeakestLinkOracle(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: WeakestLink}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	screen, err := sys.SteadyScreen(ScreenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mortal := screen.CandidateMask()
	if screen.MortalVias == len(g.Vias) {
		t.Fatal("screen prunes no array; the screened product would be the full one trivially")
	}
	all := make([]bool, len(g.Vias))
	for k := range all {
		all[k] = true
	}
	full, screened := weakestLinkCDF(cfg, sys.i0, nil), weakestLinkCDF(cfg, sys.i0, mortal)

	const trials = 2000
	bound := 1.63 / math.Sqrt(trials)
	var times []float64
	for _, c := range []struct {
		name string
		mask []bool
		seed int64
		cdf  func(float64) float64
	}{
		{"unmasked", nil, 11, full},
		{"masked-all", all, 12, full},
		{"screened", mortal, 13, screened},
	} {
		res, err := mc.Run(sys.Clone(), mc.Options{Trials: trials, Seed: c.seed, Candidates: c.mask})
		if err != nil {
			t.Fatal(err)
		}
		e, err := stat.NewECDF(res.FiniteTTF())
		if err != nil {
			t.Fatal(err)
		}
		if e.Len() != trials {
			t.Fatalf("%s: %d of %d trials failed", c.name, e.Len(), trials)
		}
		if d := e.KSDistance(c.cdf); d > bound {
			t.Errorf("%s: KS distance %.4f to the exact weakest-link CDF exceeds %.4f", c.name, d, bound)
		}
		times = append(times, e.Values()...)
	}
	for _, x := range times {
		if f, fs := full(x), screened(x); f != fs {
			t.Fatalf("at t = %g s the full product gives %g, the mortal set %g", x, f, fs)
		}
	}
}
