package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/telemetry"
	"emvia/internal/thermal"
	"emvia/internal/viaarray"
)

// fastAnalyzer returns an analyzer with coarse FEA resolution for tests.
func fastAnalyzer() *Analyzer {
	a := NewAnalyzer()
	a.Base.Margin = 1.0 * phys.Micron
	a.Base.SubstrateThickness = 0.8 * phys.Micron
	a.Base.StepOutside = 0.5 * phys.Micron
	a.Base.StepZBulk = 1.0 * phys.Micron
	return a
}

func TestArrayCriterionMapping(t *testing.T) {
	if got := ArrayWeakestLink().FailK(4); got != 1 {
		t.Errorf("weakest-link FailK = %d", got)
	}
	if got := ArrayOpenCircuit().FailK(4); got != 16 {
		t.Errorf("open-circuit FailK = %d", got)
	}
	if got := ArrayResistance2x().FailK(4); got != 8 {
		t.Errorf("R=2x FailK = %d", got)
	}
	if got := ArrayResistance2x().FailK(8); got != 32 {
		t.Errorf("R=2x FailK(8) = %d", got)
	}
	if s := ArrayWeakestLink().String(); s != "Weakest-link" {
		t.Errorf("String = %q", s)
	}
	if s := ArrayOpenCircuit().String(); s != "R=inf" {
		t.Errorf("String = %q", s)
	}
	if s := ArrayResistance2x().String(); s != "R=2x" {
		t.Errorf("String = %q", s)
	}
}

func TestStressForMemoizes(t *testing.T) {
	a := fastAnalyzer()
	s1, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache (same backing array).
	s2, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	if &s1[0][0] != &s2[0][0] {
		t.Error("StressFor did not memoize")
	}
	if len(s1) != 2 || s1[0][0] <= 0 {
		t.Errorf("stress matrix malformed: %v", s1)
	}
}

func TestCharacterizeViaArray(t *testing.T) {
	a := fastAnalyzer()
	c, err := a.CharacterizeViaArray(cudd.Plus, 2, 2*phys.Micron, 1e10, ArrayOpenCircuit(), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Model.FailK != 4 {
		t.Errorf("model FailK = %d, want 4", c.Model.FailK)
	}
	med := phys.SecondsToYears(c.Model.Dist.Median())
	if med < 0.5 || med > 50 {
		t.Errorf("array TTF median = %g years, implausible", med)
	}
}

func TestViaArrayModelsPatternOrdering(t *testing.T) {
	// L-pattern arrays see less stress than Plus → longer TTF (Fig 8b).
	a := fastAnalyzer()
	models, err := a.ViaArrayModels(2, 2*phys.Micron, 1e10, ArrayOpenCircuit(), 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("models = %d patterns", len(models))
	}
	plus := models[cudd.Plus].Dist.Median()
	l := models[cudd.LShape].Dist.Median()
	if !(l > plus) {
		t.Errorf("L median %g not above Plus median %g", l, plus)
	}
}

func TestAnalyzeGridEndToEnd(t *testing.T) {
	a := fastAnalyzer()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 8, 8
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Tune(0.05, 0.01); err != nil {
		t.Fatal(err)
	}
	report, err := a.AnalyzeGrid(GridAnalysis{
		Grid:            g,
		ArrayN:          2,
		ArrayCriterion:  ArrayOpenCircuit(),
		SystemCriterion: pdn.IRDrop,
		IRDropFrac:      0.10,
		CharTrials:      100,
		GridTrials:      60,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := report.WorstCaseYears()
	med := report.MedianYears()
	t.Logf("grid TTF: worst-case %.2f y, median %.2f y", worst, med)
	if !(worst > 0 && worst <= med) {
		t.Errorf("percentiles inconsistent: worst %g, median %g", worst, med)
	}
	if med < 0.2 || med > 100 {
		t.Errorf("median %g years implausible", med)
	}
	if p := report.PercentileYears(0.9); p < med {
		t.Errorf("90th percentile %g below median %g", p, med)
	}
}

func TestAnalyzeGridCriteriaOrdering(t *testing.T) {
	// Table 2's structure: weakest-link system < IR-drop system for the
	// same array criterion; weakest-link array < open-circuit array for the
	// same system criterion.
	a := fastAnalyzer()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 8, 8
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Tune(0.05, 0.01); err != nil {
		t.Fatal(err)
	}
	run := func(sys pdn.Criterion, arr ArrayCriterion) float64 {
		t.Helper()
		rep, err := a.AnalyzeGrid(GridAnalysis{
			Grid:            g,
			ArrayN:          2,
			ArrayCriterion:  arr,
			SystemCriterion: sys,
			IRDropFrac:      0.10,
			CharTrials:      150,
			GridTrials:      80,
			Seed:            13,
		})
		if err != nil {
			t.Fatalf("AnalyzeGrid(%v, %v): %v", sys, arr, err)
		}
		return rep.MedianYears()
	}
	wlWL := run(pdn.WeakestLink, ArrayWeakestLink())
	wlInf := run(pdn.WeakestLink, ArrayOpenCircuit())
	irWL := run(pdn.IRDrop, ArrayWeakestLink())
	irInf := run(pdn.IRDrop, ArrayOpenCircuit())
	t.Logf("median years: WL/WL=%.2f WL/Inf=%.2f IR/WL=%.2f IR/Inf=%.2f", wlWL, wlInf, irWL, irInf)
	if !(wlWL < wlInf && irWL < irInf) {
		t.Error("array criterion ordering violated")
	}
	if !(wlWL < irWL && wlInf < irInf) {
		t.Error("system criterion ordering violated")
	}
}

func TestAnalyzeGridValidation(t *testing.T) {
	a := fastAnalyzer()
	if _, err := a.AnalyzeGrid(GridAnalysis{}); err == nil {
		t.Error("accepted nil grid")
	}
}

// TestAnalyzeGridRejectsSteadyEngine: the grid analyses report a TTF
// distribution, which the steady engine does not produce, so every entry
// point must refuse it — and an unknown engine — before spending the FEA
// characterization.
func TestAnalyzeGridRejectsSteadyEngine(t *testing.T) {
	a := fastAnalyzer()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 6, 6
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CalibrateLoad(0.05); err != nil {
		t.Fatal(err)
	}
	models := map[cudd.Pattern]viaarray.TTFModel{}
	for _, p := range cudd.Patterns() {
		models[p] = viaarray.TTFModel{Dist: stat.LogNormal{Mu: 19, Sigma: 0.3}, RefCurrent: 0.01, FailK: 1}
	}
	for _, engine := range []string{"steady", "bogus"} {
		ga := GridAnalysis{
			Grid: g, ArrayN: 2, ArrayCriterion: ArrayOpenCircuit(),
			SystemCriterion: pdn.WeakestLink, CharTrials: 20, GridTrials: 20, Seed: 3,
			Engine: engine,
		}
		_, errGrid := a.AnalyzeGrid(ga)
		_, errModels := a.AnalyzeGridWithModels(ga, models)
		_, errThermal := a.AnalyzeGridThermal(ga, thermal.Config{})
		for name, err := range map[string]error{"AnalyzeGrid": errGrid, "AnalyzeGridWithModels": errModels, "AnalyzeGridThermal": errThermal} {
			if err == nil {
				t.Errorf("%s accepted engine %q", name, engine)
			} else if engine == "steady" && !strings.Contains(err.Error(), "no TTF distribution") {
				t.Errorf("%s steady error %q does not say why", name, err)
			}
		}
	}
	if n := len(a.memo.entries); n != 0 {
		t.Errorf("rejected analyses ran %d FEA characterizations", n)
	}
}

func TestWorstCaseBelowMedianProperty(t *testing.T) {
	if ArrayOpenCircuit().ResistanceFactor != math.Inf(1) {
		t.Error("open circuit factor not +Inf")
	}
}

func TestPackageStressShiftsSigma(t *testing.T) {
	a := fastAnalyzer()
	base, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	a.PackageStress = 30e6
	shifted, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		for j := range base[i] {
			if math.Abs(shifted[i][j]-base[i][j]-30e6) > 1 {
				t.Errorf("via (%d,%d): shift = %g, want 30e6", i, j, shifted[i][j]-base[i][j])
			}
		}
	}
	// Package stress raises σ_T and must shorten the array TTF.
	a.PackageStress = 0
	c0, err := a.CharacterizeViaArray(cudd.Plus, 2, 2*phys.Micron, 1e10, ArrayOpenCircuit(), 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.PackageStress = 40e6
	c1, err := a.CharacterizeViaArray(cudd.Plus, 2, 2*phys.Micron, 1e10, ArrayOpenCircuit(), 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Model.Dist.Median() >= c0.Model.Dist.Median() {
		t.Errorf("package stress did not shorten TTF: %g vs %g",
			c1.Model.Dist.Median(), c0.Model.Dist.Median())
	}
}

func TestAnalyzeGridThermal(t *testing.T) {
	a := fastAnalyzer()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 8, 8
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	analysis := GridAnalysis{
		Grid:            g,
		ArrayN:          2,
		ArrayCriterion:  ArrayOpenCircuit(),
		SystemCriterion: pdn.IRDrop,
		IRDropFrac:      0.10,
		CharTrials:      100,
		GridTrials:      50,
		Seed:            31,
	}
	rep, err := a.AnalyzeGridThermal(analysis, thermal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ViaTempsC) != len(g.Vias) || len(rep.Scale) != len(g.Vias) {
		t.Fatalf("report lengths: temps %d scale %d", len(rep.ViaTempsC), len(rep.Scale))
	}
	for k, s := range rep.Scale {
		if s <= 0 {
			t.Fatalf("scale[%d] = %g", k, s)
		}
	}
	// The EM model is characterized at 105 °C; the compact package here
	// runs cooler, so thermal awareness should not shorten life below the
	// uniform-worst-case analysis by much — and it must stay same order.
	uniform, err := a.AnalyzeGrid(analysis)
	if err != nil {
		t.Fatal(err)
	}
	rU, rT := uniform.MedianYears(), rep.Grid.MedianYears()
	t.Logf("uniform 105C median %.2f y, thermal-aware median %.2f y (die max %.1f C)",
		rU, rT, rep.Map.MaxTemp())
	if rT < rU/20 || rT > rU*50 {
		t.Errorf("thermal-aware TTF %g wildly off uniform %g", rT, rU)
	}
	// Hotter arrays must get smaller scales: correlation check.
	var hotScale, coolScale float64
	hotT, coolT := -1e9, 1e9
	for k := range rep.Scale {
		if rep.ViaTempsC[k] > hotT {
			hotT, hotScale = rep.ViaTempsC[k], rep.Scale[k]
		}
		if rep.ViaTempsC[k] < coolT {
			coolT, coolScale = rep.ViaTempsC[k], rep.Scale[k]
		}
	}
	if hotT > coolT && hotScale >= coolScale {
		t.Errorf("hottest array (%.1f °C, scale %.3g) not aging faster than coolest (%.1f °C, scale %.3g)",
			hotT, hotScale, coolT, coolScale)
	}
}

func TestPercentileCIYears(t *testing.T) {
	a := fastAnalyzer()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 8, 8
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	rep, err := a.AnalyzeGrid(GridAnalysis{
		Grid: g, ArrayN: 2, ArrayCriterion: ArrayOpenCircuit(),
		SystemCriterion: pdn.IRDrop, IRDropFrac: 0.10,
		CharTrials: 100, GridTrials: 120, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 120 trials give the 0.3-percentile an upper bound but no lower bound.
	lo, hi, err := rep.PercentileCIYears(0.003, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Missing() || lo.Need != 1228 {
		t.Errorf("lower bound %+v, want missing until 1228 trials", lo)
	}
	point := rep.WorstCaseYears()
	if hi.Missing() || !(point <= hi.Value) {
		t.Errorf("upper bound %+v below point estimate %g", hi, point)
	}
	if want := phys.SecondsToYears(rep.TTF.Values()[hi.K-1]); hi.Value != want {
		t.Errorf("upper bound %g years, want X_(%d) = %g", hi.Value, hi.K, want)
	}
	// The median has both bounds, on either side of the point estimate.
	lo, hi, err = rep.PercentileCIYears(0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if med := rep.MedianYears(); lo.Missing() || hi.Missing() || !(lo.Value <= med && med <= hi.Value) {
		t.Errorf("median CI [%+v, %+v] excludes point estimate %g", lo, hi, med)
	}
}

func TestOptimizeArray(t *testing.T) {
	a := fastAnalyzer()
	choices, best, err := a.OptimizeArray(OptimizeArraySpec{
		Pattern:    cudd.Plus,
		Candidates: []int{1, 2, 4},
		Trials:     150,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 || best < 0 || best >= 3 {
		t.Fatalf("choices=%d best=%d", len(choices), best)
	}
	for _, c := range choices {
		if !c.Feasible {
			t.Fatalf("n=%d unexpectedly infeasible: %s", c.ArrayN, c.Reason)
		}
		if c.WorstCaseYears <= 0 || c.MedianYears < c.WorstCaseYears {
			t.Errorf("n=%d: worst %g median %g", c.ArrayN, c.WorstCaseYears, c.MedianYears)
		}
	}
	// Redundancy + stress: the best choice is not the single via.
	if choices[best].ArrayN == 1 {
		t.Errorf("optimizer picked the 1x1 via (worst=%.2f)", choices[best].WorstCaseYears)
	}
	// A brutal spacing rule makes large arrays infeasible and is reported.
	ruled, best2, err := a.OptimizeArray(OptimizeArraySpec{
		Pattern:    cudd.Plus,
		ViaSpacing: 0.35 * phys.Micron,
		Candidates: []int{2, 8},
		Trials:     100,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ruled[1].Feasible {
		t.Error("8x8 under a 0.35 um rule should not fit a 2 um wire")
	}
	if ruled[1].Reason == "" {
		t.Error("infeasible choice lacks a reason")
	}
	if best2 != 0 {
		t.Errorf("best = %d, want the only feasible candidate", best2)
	}
	// All candidates infeasible is an error.
	if _, _, err := a.OptimizeArray(OptimizeArraySpec{
		Pattern:    cudd.Plus,
		ViaSpacing: 2 * phys.Micron,
		Candidates: []int{4, 8},
		Trials:     50,
	}); err == nil {
		t.Error("accepted all-infeasible spec")
	}
}

// TestOptimizeArrayUsesDiskCache runs the optimizer twice over one stress
// cache directory, each time on a fresh analyzer: the second run must read
// every feasible candidate's stress from disk and run no FEA.
func TestOptimizeArrayUsesDiskCache(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	dir := t.TempDir()
	spec := OptimizeArraySpec{Pattern: cudd.Plus, Candidates: []int{1, 2}, Trials: 50, Seed: 5}
	run := func() []ArrayChoice {
		a := fastAnalyzer()
		if err := a.EnableStressCache(dir); err != nil {
			t.Fatal(err)
		}
		choices, _, err := a.OptimizeArray(spec)
		if err != nil {
			t.Fatal(err)
		}
		return choices
	}
	first := run()
	hits := reg.Counter(telemetry.StressDiskHits).Value()
	solves := reg.Counter(telemetry.FEMSolves).Value()
	if solves == 0 {
		t.Fatal("cold run recorded no FEA solves")
	}
	second := run()
	feasible := 0
	for _, c := range second {
		if c.Feasible {
			feasible++
		}
	}
	if got := reg.Counter(telemetry.StressDiskHits).Value() - hits; got != int64(feasible) {
		t.Errorf("warm run: %d disk hits, want %d (one per feasible candidate)", got, feasible)
	}
	if got := reg.Counter(telemetry.FEMSolves).Value() - solves; got != 0 {
		t.Errorf("warm run: %d FEA solves, want 0", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("warm run changed the choices:\n cold %+v\n warm %+v", first, second)
	}
}
