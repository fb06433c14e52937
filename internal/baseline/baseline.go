// Package baseline implements the traditional EM methodology the paper
// argues against (§1): Black's-equation lifetime models characterized at
// accelerated test conditions, and foundry current-density (j_max)
// screening. Neither sees thermomechanical stress, via-array geometry or
// redundancy; the repository's benchmarks compare them against the
// stress-aware flow.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/spice"
	"emvia/internal/stat"
)

// Black is Black's lifetime law, t50 = A·j⁻ⁿ·exp(Ea/kB·T), with a lognormal
// spread — the industry-standard EM model ([1] in the paper).
type Black struct {
	// A is the technology prefactor (units depend on N; fixed by
	// Calibrate).
	A float64
	// N is the current-density exponent (2 for nucleation-dominated Cu).
	N float64
	// Ea is the activation energy, J.
	Ea float64
	// LogSigma is the lognormal sigma of the TTF spread.
	LogSigma float64
}

// DefaultBlack returns a nucleation-dominated Cu model (n = 2,
// Ea = 0.85 eV, σ = 0.3) with A calibrated so the reference condition
// (j = 1e10 A/m² at 105 °C) has a median TTF of 8 years, matching the
// stress-aware flow's calibration point.
func DefaultBlack() Black {
	b := Black{N: 2, Ea: 0.85 * phys.ElectronVolt, LogSigma: 0.3}
	return b.Calibrate(1e10, phys.CelsiusToKelvin(105), 8*phys.Year)
}

// Validate reports the first invalid field.
func (b Black) Validate() error {
	if b.A <= 0 || math.IsNaN(b.A) {
		return fmt.Errorf("baseline: Black prefactor must be positive, got %g", b.A)
	}
	if b.N <= 0 {
		return fmt.Errorf("baseline: Black exponent must be positive, got %g", b.N)
	}
	if b.Ea <= 0 {
		return fmt.Errorf("baseline: activation energy must be positive, got %g", b.Ea)
	}
	if b.LogSigma < 0 {
		return fmt.Errorf("baseline: LogSigma must be ≥ 0, got %g", b.LogSigma)
	}
	return nil
}

// MedianTTF returns t50 in seconds at current density j (A/m²) and
// temperature tempK.
func (b Black) MedianTTF(j, tempK float64) float64 {
	if j <= 0 {
		return math.Inf(1)
	}
	return b.A * math.Pow(j, -b.N) * math.Exp(b.Ea/(phys.Boltzmann*tempK))
}

// Dist returns the lognormal TTF distribution at the given conditions.
func (b Black) Dist(j, tempK float64) stat.LogNormal {
	return stat.LogNormal{Mu: math.Log(b.MedianTTF(j, tempK)), Sigma: b.LogSigma}
}

// Calibrate returns a copy with A set so MedianTTF(j, tempK) = target
// seconds.
func (b Black) Calibrate(j, tempK, target float64) Black {
	b.A = 1
	cur := b.MedianTTF(j, tempK)
	b.A = target / cur
	return b
}

// AccelerationFactor maps an accelerated-test lifetime to use conditions:
// AF = (j_test/j_use)ⁿ · exp(Ea/kB·(1/T_use − 1/T_test)). TTF_use =
// AF · TTF_test. This is the §1 procedure whose blind spot — stress state
// differs between 300 °C characterization and 105 °C operation — motivates
// the paper.
func (b Black) AccelerationFactor(jTest, tTestK, jUse, tUseK float64) float64 {
	return math.Pow(jTest/jUse, b.N) *
		math.Exp(b.Ea/phys.Boltzmann*(1/tUseK-1/tTestK))
}

// ScreenEntry is one via array's current-density check.
type ScreenEntry struct {
	// Via identifies the array in the grid.
	Via pdn.ViaInfo
	// J is the array current density, A/m², at the DC operating point.
	J float64
	// Pass reports J ≤ the screen limit.
	Pass bool
}

// ScreenResult is a j_max screen of a power grid.
type ScreenResult struct {
	// Limit is the screening current density, A/m².
	Limit float64
	// Entries are per-array results, sorted by descending J.
	Entries []ScreenEntry
	// Violations counts failing arrays.
	Violations int
}

// ScreenCurrentDensity performs the traditional foundry check: solve the
// grid once and compare every via array's current density (total current
// over the array's copper area viaArea) against the limit. It is fast and
// geometry-blind — the point of comparison for the stress-aware flow.
func ScreenCurrentDensity(g *pdn.Grid, viaArea, limit float64) (*ScreenResult, error) {
	if viaArea <= 0 || limit <= 0 {
		return nil, fmt.Errorf("baseline: viaArea and limit must be positive")
	}
	c, err := spice.Compile(g.Netlist)
	if err != nil {
		return nil, err
	}
	op, err := c.SolveDC()
	if err != nil {
		return nil, err
	}
	res := &ScreenResult{Limit: limit}
	for _, v := range g.Vias {
		j := math.Abs(op.ResistorCurrent(v.ResistorIndex)) / viaArea
		e := ScreenEntry{Via: v, J: j, Pass: j <= limit}
		if !e.Pass {
			res.Violations++
		}
		res.Entries = append(res.Entries, e)
	}
	sort.Slice(res.Entries, func(i, j int) bool { return res.Entries[i].J > res.Entries[j].J })
	return res, nil
}

// WeakestLinkGridTTF is the full traditional flow: every via array gets an
// identical Black lifetime at its own current (no stress, no redundancy),
// and the grid dies with its first array — analytically the minimum of
// independent lognormals, evaluated here by quantile search on the exact
// min-CDF. It returns the requested quantile of the grid TTF in seconds.
func WeakestLinkGridTTF(g *pdn.Grid, b Black, viaArea, tempK, quantile float64) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if quantile <= 0 || quantile >= 1 {
		return 0, fmt.Errorf("baseline: quantile must be in (0,1), got %g", quantile)
	}
	c, err := spice.Compile(g.Netlist)
	if err != nil {
		return 0, err
	}
	op, err := c.SolveDC()
	if err != nil {
		return 0, err
	}
	dists := make([]stat.LogNormal, 0, len(g.Vias))
	for _, v := range g.Vias {
		j := math.Abs(op.ResistorCurrent(v.ResistorIndex)) / viaArea
		if j <= 0 {
			continue // carries no current: immortal under Black
		}
		dists = append(dists, b.Dist(j, tempK))
	}
	if len(dists) == 0 {
		return math.Inf(1), nil
	}
	// F_min(t) = 1 − Π(1 − F_i(t)); bisect for F_min(t) = quantile.
	cdfMin := func(t float64) float64 {
		logSurv := 0.0
		for _, d := range dists {
			s := 1 - d.CDF(t)
			if s <= 0 {
				return 1
			}
			logSurv += math.Log(s)
		}
		return 1 - math.Exp(logSurv)
	}
	lo, hi := 1.0, 1.0
	for cdfMin(hi) < quantile {
		hi *= 2
		if hi > 1e15 {
			return math.Inf(1), nil
		}
	}
	for cdfMin(lo) > quantile {
		lo /= 2
		if lo < 1e-9 {
			break
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-6*hi; i++ {
		mid := (lo + hi) / 2
		if cdfMin(mid) < quantile {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
