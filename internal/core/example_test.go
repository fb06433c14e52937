package core_test

import (
	"fmt"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/phys"
)

// The shortest path through the library: characterize one via array's
// thermomechanical stress with the built-in FEA, turn it into a TTF
// distribution with the EM nucleation model, and print the reliability
// numbers a designer would act on.
func ExampleAnalyzer_CharacterizeViaArray() {
	// An Analyzer owns the technology: Cu DD geometry (32 nm-class
	// defaults), operating temperature, and calibrated EM constants.
	analyzer := core.NewAnalyzer()

	// Step 1 — thermomechanical stress. This runs a real 3-D thermoelastic
	// finite-element solve of the Cu dual-damascene structure: a 4×4 via
	// array joining two 2 µm power-grid wires in a Plus-shaped mesh
	// intersection, cooled from the stress-free temperature to 105 °C.
	sigma, err := analyzer.StressFor(cudd.Plus, analyzer.Base.LayerPair, 4, 2*phys.Micron)
	if err != nil {
		panic(err)
	}
	fmt.Println("Per-via peak thermomechanical stress sigma_T (MPa):")
	for _, row := range sigma {
		for _, v := range row {
			fmt.Printf(" %6.1f", v/phys.MPa)
		}
		fmt.Println()
	}

	// Step 2 — via-array reliability. Monte Carlo over the EM nucleation
	// model (Algorithm 1 of the paper): vias fail one by one, current
	// redistributes through the array's resistive network, and the array is
	// deemed failed when its resistance doubles (half the vias gone).
	char, err := analyzer.CharacterizeViaArray(
		cudd.Plus, 4, 2*phys.Micron,
		1e10, // A/m² total current density over the 1 µm² array
		core.ArrayResistance2x(),
		500,  // Monte-Carlo trials
		2017, // seed
	)
	if err != nil {
		panic(err)
	}
	model := char.Model
	fmt.Printf("\n4x4 Plus-shaped array, R=2x failure criterion:\n")
	fmt.Printf("  median TTF      %6.2f years\n", phys.SecondsToYears(model.Dist.Median()))
	fmt.Printf("  0.3%%ile TTF     %6.2f years (worst case)\n", phys.SecondsToYears(model.Dist.Quantile(0.003)))
	fmt.Printf("  lognormal fit   mu=%.3f sigma=%.3f (ln seconds)\n", model.Dist.Mu, model.Dist.Sigma)

	// The model rescales to any operating current via TTF ∝ 1/I².
	halfCurrent := model.RefCurrent / 2
	fmt.Printf("  at half current %6.2f years median\n",
		phys.SecondsToYears(model.Dist.Median()*model.Scale(halfCurrent)))
	// Output:
	// Per-via peak thermomechanical stress sigma_T (MPa):
	//   229.0  219.3  219.3  229.0
	//   230.9  222.1  222.1  230.9
	//   230.9  222.1  222.1  230.9
	//   229.0  219.3  219.3  229.0
	//
	// 4x4 Plus-shaped array, R=2x failure criterion:
	//   median TTF        6.07 years
	//   0.3%ile TTF       4.50 years (worst case)
	//   lognormal fit   mu=19.071 sigma=0.109 (ln seconds)
	//   at half current  24.28 years median
}
