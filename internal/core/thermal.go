package core

import (
	"fmt"

	"emvia/internal/cudd"
	"emvia/internal/thermal"
)

// ThermalReport augments a grid analysis with the die temperature field it
// was derated by.
type ThermalReport struct {
	// Grid is the underlying grid analysis report.
	Grid *GridReport
	// Map is the solved die temperature field.
	Map *thermal.Map
	// ViaTempsC holds the local temperature of each via array, °C.
	ViaTempsC []float64
	// Scale holds the applied per-array TTF derating factors.
	Scale []float64
}

// AnalyzeGridThermal runs the thermally-aware variant of the flow: the grid
// is solved for its power map, the compact thermal network yields per-array
// local temperatures, every array's characterized TTF is rescaled from the
// EM model's reference temperature (Arrhenius diffusivity + σ_T relaxation
// toward the stress-free point), and the grid Monte Carlo runs with those
// local deratings. Pass a zero thermal.Config to use defaults matched to
// the grid lattice.
func (a *Analyzer) AnalyzeGridThermal(g GridAnalysis, tcfg thermal.Config) (*ThermalReport, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	tm, temps, err := g.Grid.ThermalProfile(tcfg)
	if err != nil {
		return nil, err
	}
	// Reference σ_T per pattern: the mean of the FEA stress map the models
	// were characterized with.
	width := g.Grid.Spec.WireWidth
	if width == 0 {
		width = a.Base.WireWidth
	}
	meanSigma := map[cudd.Pattern]float64{}
	for _, v := range g.Grid.Vias {
		if _, ok := meanSigma[v.Pattern]; ok {
			continue
		}
		s, err := a.StressFor(v.Pattern, a.Base.LayerPair, g.ArrayN, width)
		if err != nil {
			return nil, err
		}
		sum, n := 0.0, 0
		for _, row := range s {
			for _, x := range row {
				sum += x
				n++
			}
		}
		meanSigma[v.Pattern] = sum / float64(n)
	}
	scale := make([]float64, len(g.Grid.Vias))
	for k, v := range g.Grid.Vias {
		scale[k] = a.EM.TTFTempScale(
			meanSigma[v.Pattern],
			a.EM.TempC,
			temps[k],
			a.Base.AnnealT,
			a.referenceCurrentDensity(),
		)
		if scale[k] <= 0 {
			return nil, fmt.Errorf("core: array %d at %.1f °C has zero TTF scale (immediate failure regime)", k, temps[k])
		}
	}
	g.TTFScale = scale
	rep, err := a.AnalyzeGrid(g)
	if err != nil {
		return nil, err
	}
	return &ThermalReport{Grid: rep, Map: tm, ViaTempsC: temps, Scale: scale}, nil
}
