package main

import (
	"fmt"
	"math"
	"os"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mat"
	"emvia/internal/phys"
	"emvia/internal/textplot"
)

// figTable1 prints the material property table (paper Table 1).
func figTable1(_ *core.Analyzer, _ options) error {
	fmt.Println("Table 1: Mechanical properties of materials in Cu DD")
	fmt.Printf("%-10s %-8s %14s %10s %14s\n", "Structure", "Material", "E (GPa)", "Poisson", "CTE (ppm/°C)")
	rows := []struct {
		structure string
		id        mat.ID
	}{
		{"Substrate", mat.Silicon},
		{"Bulk", mat.Copper},
		{"ILD", mat.SiCOH},
		{"Barrier", mat.Tantalum},
		{"Capping", mat.SiN},
	}
	for _, r := range rows {
		p := mat.Table1[r.id]
		fmt.Printf("%-10s %-8s %14.1f %10.3g %14.2f\n",
			r.structure, r.id, p.E/phys.GPa, p.Nu, p.CTE/phys.PPM)
	}
	return nil
}

// scanProfile characterizes a structure at fine resolution and returns the
// σ_H scan through via row `row`.
func scanProfile(a *core.Analyzer, n int, pattern cudd.Pattern, row int) (*cudd.Result, []float64, []float64, error) {
	p := fineParams(a, n, pattern)
	res, err := cudd.Characterize(p, a.FEA)
	if err != nil {
		return nil, nil, nil, err
	}
	xs, sh := res.RowScan(row)
	return res, xs, sh, nil
}

// printProfile dumps a scan as a data table in the paper's axes (x in µm
// from the wire edge of the scan window, σ_H in MPa).
func printProfile(name string, xs, sh []float64, x0 float64) {
	fmt.Printf("# %s: x(um)  sigmaH(MPa)\n", name)
	for i := range xs {
		fmt.Printf("%8.4f %10.2f\n", (xs[i]-x0)/phys.Micron, sh[i]/phys.MPa)
	}
}

// windowAroundArray clips a scan to ±0.5 µm around the via-array extent and
// rebases x, matching the 0–2 µm windows of Figs 1, 6 and 7.
func windowAroundArray(p cudd.Params, xs, sh []float64) (wx, wy []float64, x0 float64) {
	v, err := p.Validate()
	if err != nil {
		return xs, sh, 0
	}
	cx := v.WireWidth/2 + v.Margin
	half := float64(2*v.ArrayN-1)*(math.Sqrt(v.ViaArea)/float64(v.ArrayN))/2 + 0.5*phys.Micron
	lo, hi := cx-half, cx+half
	for i := range xs {
		if xs[i] >= lo && xs[i] <= hi {
			wx = append(wx, xs[i])
			wy = append(wy, sh[i])
		}
	}
	return wx, wy, lo
}

// fig1 reproduces Figure 1: hydrostatic stress under a 1×1 via vs a 4×4 via
// array (Plus pattern, 2 µm wire, 1 µm² total via area).
func fig1(a *core.Analyzer, _ options) error {
	plot := &textplot.Plot{
		Title:  "Fig 1: sigma_H along the wire beneath the via(s), 1x1 vs 4x4",
		XLabel: "x (um)",
		YLabel: "sigma_H (MPa)",
	}
	for _, n := range []int{1, 4} {
		row := 0
		if n == 4 {
			row = 1 // inner row: the black-arrow scan of the paper
		}
		res, xs, sh, err := scanProfile(a, n, cudd.Plus, row)
		if err != nil {
			return err
		}
		wx, wy, x0 := windowAroundArray(res.Params, xs, sh)
		name := fmt.Sprintf("%dx%d", n, n)
		printProfile(name, wx, wy, x0)
		sx := make([]float64, len(wx))
		sy := make([]float64, len(wy))
		for i := range wx {
			sx[i] = (wx[i] - x0) / phys.Micron
			sy[i] = wy[i] / phys.MPa
		}
		if err := plot.Add(textplot.Series{Name: name, X: sx, Y: sy}); err != nil {
			return err
		}
		fmt.Printf("# %s per-via peak sigma_T (MPa): min %.1f, max %.1f\n",
			name, res.MinPeak()/phys.MPa, res.MaxPeak()/phys.MPa)
		// The paper: "this stress difference translates to a lifetime
		// improvement of ~2 years for each inner via".
		tWorst, tBest := a.EM.MedianTTF(res.MaxPeak(), refJ), a.EM.MedianTTF(res.MinPeak(), refJ)
		fmt.Printf("# %s median single-via TTF (y): most-stressed %.2f, least-stressed %.2f (gain %.2f)\n",
			name, phys.SecondsToYears(tWorst), phys.SecondsToYears(tBest), phys.SecondsToYears(tBest-tWorst))
	}
	return plot.Render(os.Stdout)
}

// fig6 reproduces Figure 6: σ_T scans for the Plus-, T- and L-shaped
// intersection patterns of a 4×4 array.
func fig6(a *core.Analyzer, _ options) error {
	plot := &textplot.Plot{
		Title:  "Fig 6: thermal stress for intersection patterns (4x4 array)",
		XLabel: "x (um)",
		YLabel: "sigma_H (MPa)",
	}
	for _, pat := range cudd.Patterns() {
		res, xs, sh, err := scanProfile(a, 4, pat, 1)
		if err != nil {
			return err
		}
		wx, wy, x0 := windowAroundArray(res.Params, xs, sh)
		printProfile(pat.String(), wx, wy, x0)
		sx := make([]float64, len(wx))
		sy := make([]float64, len(wy))
		for i := range wx {
			sx[i] = (wx[i] - x0) / phys.Micron
			sy[i] = wy[i] / phys.MPa
		}
		if err := plot.Add(textplot.Series{Name: pat.String(), X: sx, Y: sy}); err != nil {
			return err
		}
		fmt.Printf("# %s peak sigma_T = %.1f MPa\n", pat, res.MaxPeak()/phys.MPa)
	}
	return plot.Render(os.Stdout)
}

// fig7 reproduces Figure 7: 8×8 vs 4×4 via-array stress scans (same total
// via area).
func fig7(a *core.Analyzer, _ options) error {
	plot := &textplot.Plot{
		Title:  "Fig 7: sigma_H scans, 8x8 vs 4x4 via array",
		XLabel: "x (um)",
		YLabel: "sigma_H (MPa)",
	}
	for _, n := range []int{4, 8} {
		res, xs, sh, err := scanProfile(a, n, cudd.Plus, n/2-1)
		if err != nil {
			return err
		}
		wx, wy, x0 := windowAroundArray(res.Params, xs, sh)
		name := fmt.Sprintf("%dx%d", n, n)
		printProfile(name, wx, wy, x0)
		sx := make([]float64, len(wx))
		sy := make([]float64, len(wy))
		for i := range wx {
			sx[i] = (wx[i] - x0) / phys.Micron
			sy[i] = wy[i] / phys.MPa
		}
		if err := plot.Add(textplot.Series{Name: name, X: sx, Y: sy}); err != nil {
			return err
		}
		inner := res.PeakSigmaT[n/2][n/2]
		fmt.Printf("# %s: inner-via sigma_T %.1f MPa, corner-via %.1f MPa\n",
			name, inner/phys.MPa, res.PeakSigmaT[0][0]/phys.MPa)
	}
	return plot.Render(os.Stdout)
}
