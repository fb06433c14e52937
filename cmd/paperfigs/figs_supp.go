package main

import (
	"context"
	"fmt"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/thermal"
)

// figS1 prints the stress-aware current-density limits: the j_max each
// (pattern, configuration) family can carry for a 10-year median via
// lifetime. The foundry's traditional screen uses one number for all of
// them; the spread of this table is the paper's point.
func figS1(a *core.Analyzer, _ options) error {
	target := phys.YearsToSeconds(10)
	fmt.Println("S1: stress-aware j_max (A/m^2) for a 10-year median via lifetime")
	fmt.Printf("%-14s %12s %12s %12s\n", "pattern", "1x1", "4x4 (worst)", "8x8 (worst)")
	for _, pat := range cudd.Patterns() {
		row := []string{}
		for _, n := range []int{1, 4, 8} {
			sigma, err := a.StressFor(pat, a.Base.LayerPair, n, a.Base.WireWidth)
			if err != nil {
				return err
			}
			worst := sigma[0][0]
			for _, r := range sigma {
				for _, v := range r {
					if v > worst {
						worst = v
					}
				}
			}
			row = append(row, fmt.Sprintf("%.3g", a.EM.JMaxForLifetime(worst, target)))
		}
		fmt.Printf("%-14s %12s %12s %12s\n", pat, row[0], row[1], row[2])
	}
	return nil
}

// figS2 prints the EM hotspot report of the PG1 analogue: the via arrays
// that most often precipitate grid failure.
func figS2(a *core.Analyzer, opt options) error {
	g, err := buildGrid(pdn.PG1Spec(), opt.fast)
	if err != nil {
		return err
	}
	models, err := a.ViaArrayModels(4, g.Spec.WireWidth, refJ, core.ArrayOpenCircuit(), opt.trials, opt.seed)
	if err != nil {
		return err
	}
	res, _, err := pdn.Analyze(context.Background(), pdn.TTFConfig{
		Grid: g, Models: models, Criterion: pdn.IRDrop, IRDropFrac: irCriterion,
	}, pdn.ScreenConfig{}, mc.Options{Trials: opt.gridTrials, Seed: opt.seed + 5})
	if err != nil {
		return err
	}
	rep, err := pdn.CriticalityReport(g, res, 10)
	if err != nil {
		return err
	}
	fmt.Println("S2: EM hotspots of PG1 (IR-drop criterion, 4x4 arrays)")
	fmt.Printf("%-10s %-14s %14s %14s\n", "array", "pattern", "first-failures", "involvements")
	for _, e := range rep {
		fmt.Printf("(%3d,%3d)  %-14s %14d %14d\n", e.Via.IX, e.Via.IY, e.Via.Pattern, e.FirstFailures, e.Involvements)
	}
	return nil
}

// figS3 prints the steady-state wire screen (arXiv 2112.13451) that backs
// the paper's assumption of via-array-dominated failure: each mesh segment
// is classified by the steady stress of the whole wire tree it belongs to,
// not by its own j·L product, which does not bound the stress in a mesh.
func figS3(a *core.Analyzer, opt options) error {
	for i, mk := range []func() pdn.GridSpec{pdn.PG1Spec, pdn.PG2Spec, pdn.PG5Spec} {
		g, err := buildGrid(mk(), opt.fast)
		if err != nil {
			return err
		}
		_, s, err := pdn.Analyze(context.Background(), pdn.TTFConfig{Grid: g},
			pdn.ScreenConfig{EM: a.EM}, mc.Options{Engine: mc.EngineSteady})
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Printf("S3: steady-state wire screen, tree-level (sigma_crit = 1e-3 quantile of sigma_C = %.0f MPa, no wire pre-stress)\n",
				s.SigmaCritWire/phys.MPa)
		}
		fmt.Printf("%-5s %5d segments, %4d mortal (%.1f%% immortal), peak steady tension %.0f MPa\n",
			g.Spec.Name, s.Segments, s.MortalSegments, 100*(1-float64(s.MortalSegments)/float64(s.Segments)), s.Wire.MaxStress/phys.MPa)
	}
	return nil
}

// figS4 compares the uniform-105 °C assumption with the thermally-aware
// analysis on the PG1 analogue.
func figS4(a *core.Analyzer, opt options) error {
	g, err := buildGrid(pdn.PG1Spec(), opt.fast)
	if err != nil {
		return err
	}
	analysis := core.GridAnalysis{
		Grid: g, ArrayN: 4, ArrayCriterion: core.ArrayOpenCircuit(),
		SystemCriterion: pdn.IRDrop, IRDropFrac: irCriterion,
		CharTrials: opt.trials, GridTrials: opt.gridTrials, Seed: opt.seed + 9,
		Engine: opt.engine,
	}
	uniform, err := a.AnalyzeGrid(analysis)
	if err != nil {
		return err
	}
	rep, err := a.AnalyzeGridThermal(analysis, thermal.Config{})
	if err != nil {
		return err
	}
	fmt.Println("S4: thermal-aware vs uniform-105C analysis, PG1, 4x4, IR-drop/R=inf")
	fmt.Printf("uniform 105C:  median %6.2f y, worst-case %6.2f y\n", uniform.MedianYears(), uniform.WorstCaseYears())
	fmt.Printf("thermal-aware: median %6.2f y, worst-case %6.2f y (die mean %.1f C, max %.1f C)\n",
		rep.Grid.MedianYears(), rep.Grid.WorstCaseYears(), rep.Map.MeanTemp(), rep.Map.MaxTemp())
	lo, hi, err := rep.Grid.PercentileCIYears(0.003, 0.95)
	if err != nil {
		return err
	}
	fmt.Printf("thermal-aware worst-case 95%% CI (order statistics): [%s, %s] years\n", ciBound(lo), ciBound(hi))
	return nil
}

// ciBound prints one end of an order-statistic interval, or why the trial
// count cannot give it.
func ciBound(b stat.Bound) string {
	if b.Missing() {
		return fmt.Sprintf("too few trials (needs %d)", b.Need)
	}
	return fmt.Sprintf("%.2f", b.Value)
}

// figS5 demonstrates the via-spacing design rule (the paper's future work):
// equal-area vs rule-constrained 4×4 arrays.
func figS5(a *core.Analyzer, _ options) error {
	fmt.Println("S5: minimum via-spacing rule (paper future work), Plus 4x4")
	for _, sp := range []float64{0, 0.3 * phys.Micron} {
		b := *a
		b.Base.ViaSpacing = sp
		sigma, err := b.StressFor(cudd.Plus, b.Base.LayerPair, 4, b.Base.WireWidth)
		if err != nil {
			return err
		}
		res := cudd.Result{PeakSigmaT: sigma}
		p := b.Base
		p.ArrayN = 4
		p.Pattern = cudd.Plus
		v, err := p.Validate()
		if err != nil {
			return err
		}
		label := "equal-area (gap = side)"
		if sp > 0 {
			label = fmt.Sprintf("rule %.2g um", sp/phys.Micron)
		}
		fmt.Printf("%-24s extent %.2f um, sigma_T %6.1f..%6.1f MPa\n",
			label, v.ArrayExtent()/phys.Micron, res.MinPeak()/phys.MPa, res.MaxPeak()/phys.MPa)
	}
	// The rule that no longer fits is rejected, the design check a router
	// would rely on.
	p := a.Base
	p.ArrayN = 8
	p.ViaSpacing = 0.2 * phys.Micron
	if _, err := p.Validate(); err != nil {
		fmt.Printf("8x8 with 0.2 um rule: %v\n", err)
	}
	return nil
}

// figS6 simulates the emdist growth-phase comparison: Cu slit voids vs
// Al-era spanning voids (paper §2.1).
func figS6(a *core.Analyzer, _ options) error {
	em := a.EM
	j := refJ
	fmt.Println("S6: nucleation vs growth phases (paper sec 2.1)")
	tn := em.MedianTTF(230e6, j)
	fmt.Printf("nucleation time (median, sigma_T 230 MPa): %6.2f y\n", phys.SecondsToYears(tn))
	for _, c := range []struct {
		label string
		size  float64
	}{
		{"Cu DD slit void (3 nm)", 3 * phys.Nanometre},
		{"Al spanning void (250 nm)", 250 * phys.Nanometre},
	} {
		tg := em.GrowthTime(j, c.size)
		fmt.Printf("%-28s growth %8.3f y  -> TTF %6.2f y (growth share %.0f%%)\n",
			c.label, phys.SecondsToYears(tg), phys.SecondsToYears(tn+tg), 100*tg/(tn+tg))
	}
	return nil
}
