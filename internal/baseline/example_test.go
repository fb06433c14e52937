package baseline_test

import (
	"fmt"
	"math/rand"

	"emvia/internal/baseline"
	"emvia/internal/emdist"
	"emvia/internal/phys"
	"emvia/internal/stat"
)

// The blind spot that motivates the paper (§1): foundries characterize EM
// at elevated temperature (~300 °C), where the interconnect is close to its
// stress-free state, so the thermomechanical stress σ_T that dominates void
// nucleation at operating conditions (~105 °C) is invisible to the test.
// Mapping accelerated lifetimes back with Black's acceleration factor
// therefore misestimates field lifetime.
//
// The experiment simulates an accelerated test of a via with the full
// stress-aware nucleation model, fits a Black model to the "measured" data,
// extrapolates to use conditions, and compares with the stress-aware truth.
func ExampleBlack_AccelerationFactor() {
	const (
		tUse     = 105.0 // °C
		tTest    = 300.0 // °C
		tSF      = 250.0 // °C, stress-free temperature
		jUse     = 1e10  // A/m²
		jTest    = 3e10  // A/m², accelerated current
		sigmaUse = 230e6 // Pa, σ_T at operating conditions (FEA value)
	)
	em := emdist.Default()
	rng := rand.New(rand.NewSource(1))

	// σ_T seen by the test structure at 300 °C: linear in (T − T_sf), so it
	// flips compressive above the stress-free point.
	sigmaTest := emdist.SigmaTAtTemp(sigmaUse, tUse, tTest, tSF)
	fmt.Printf("thermomechanical stress: %+.0f MPa at %g °C, %+.0f MPa at %g °C test\n",
		sigmaUse/phys.MPa, tUse, sigmaTest/phys.MPa, tTest)

	// "Run" the accelerated test: sample failures from the full model at
	// test conditions.
	emTest := em.WithTemp(tTest)
	samples := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		if v := emTest.SampleTTF(rng, sigmaTest, jTest); v > 0 {
			samples = append(samples, v)
		}
	}
	fit, err := stat.FitLogNormal(samples)
	if err != nil {
		panic(err)
	}
	fmt.Printf("accelerated test at %g °C, j=%.0e: median failure %.2f hours\n",
		tTest, jTest, fit.Median()/3600)

	// Foundry-style extrapolation: Black's acceleration factor with the
	// same Ea and n=2, applied to the measured median.
	black := baseline.Black{N: 2, Ea: em.Ea, LogSigma: fit.Sigma, A: 1}
	af := black.AccelerationFactor(jTest, phys.CelsiusToKelvin(tTest), jUse, phys.CelsiusToKelvin(tUse))
	predicted := fit.Median() * af
	fmt.Printf("Black extrapolation to %g °C, j=%.0e: AF=%.3g → predicted median %.2f years\n",
		tUse, jUse, af, phys.SecondsToYears(predicted))

	// Ground truth: the stress-aware model at use conditions. At 300 °C the
	// line is nearly stress-free (even compressive), so the test sees the
	// full critical stress σ_C ≈ 345 MPa, while at 105 °C the residual
	// tension leaves only σ_C − σ_T of margin; TTF ∝ (σ_C − σ_T)² makes
	// that the dominant error term.
	truth := em.MedianTTF(sigmaUse, jUse)
	fmt.Printf("stress-aware truth at use conditions:   median %.2f years\n",
		phys.SecondsToYears(truth))
	fmt.Printf("the stress-blind extrapolation is %.1fx optimistic\n", predicted/truth)
	// Output:
	// thermomechanical stress: +230 MPa at 105 °C, -79 MPa at 300 °C test
	// accelerated test at 300 °C, j=3e+10: median failure 22.34 hours
	// Black extrapolation to 105 °C, j=1e+10: AF=6.43e+04 → predicted median 163.96 years
	// stress-aware truth at use conditions:   median 8.00 years
	// the stress-blind extrapolation is 20.5x optimistic
}
