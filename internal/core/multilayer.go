package core

import (
	"context"
	"fmt"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/stat"
	"emvia/internal/viaarray"
)

// MultiLayerAnalysis describes a §3.2-style multi-layer experiment: every
// via array uses the TTF model characterized for its own (pattern, layer
// pair) family, exercising the paper's full 9-way characterization matrix.
type MultiLayerAnalysis struct {
	// Grid is the multi-layer power grid.
	Grid *pdn.MultiLayerGrid
	// ArrayN selects the via configuration used grid-wide.
	ArrayN int
	// ArrayCriterion is the via-array failure criterion.
	ArrayCriterion ArrayCriterion
	// SystemCriterion and IRDropFrac define grid failure.
	SystemCriterion pdn.Criterion
	IRDropFrac      float64
	// CharTrials and GridTrials size the two Monte-Carlo levels.
	CharTrials, GridTrials int
	// Seed drives both levels.
	Seed int64
}

// AnalyzeMultiLayerGrid runs the pipeline with per-(pattern, pair) models.
func (a *Analyzer) AnalyzeMultiLayerGrid(m MultiLayerAnalysis) (*GridReport, error) {
	if m.Grid == nil {
		return nil, fmt.Errorf("core: MultiLayerAnalysis needs a grid")
	}
	if m.CharTrials == 0 {
		m.CharTrials = 500
	}
	if m.GridTrials == 0 {
		m.GridTrials = 500
	}
	width := m.Grid.Spec.WireWidth
	j := a.referenceCurrentDensity()

	// Characterize each (pattern, pair) family that actually occurs.
	type famKey struct {
		pat  cudd.Pattern
		pair cudd.LayerPair
	}
	fams := map[famKey]viaarray.TTFModel{}
	seedOff := int64(0)
	for _, v := range m.Grid.Vias {
		k := famKey{v.Pattern, v.LayerPair}
		if _, ok := fams[k]; ok {
			continue
		}
		c, err := a.CharacterizeViaArrayPair(v.Pattern, v.LayerPair, m.ArrayN, width, j, m.ArrayCriterion, m.CharTrials, m.Seed+seedOff)
		if err != nil {
			return nil, fmt.Errorf("core: characterizing %v/%v arrays: %w", v.Pattern, v.LayerPair, err)
		}
		fams[k] = c.Model
		seedOff++
	}
	perVia := make([]viaarray.TTFModel, len(m.Grid.Vias))
	for i, v := range m.Grid.Vias {
		perVia[i] = fams[famKey{v.Pattern, v.LayerPair}]
	}

	res, _, err := pdn.Analyze(context.TODO(), pdn.TTFConfig{
		Grid:         m.Grid.Grid,
		PerViaModels: perVia,
		Criterion:    m.SystemCriterion,
		IRDropFrac:   m.IRDropFrac,
	}, pdn.ScreenConfig{}, mc.Options{Trials: m.GridTrials, Seed: m.Seed + 1000})
	if err != nil {
		return nil, err
	}
	finite := res.FiniteTTF()
	if len(finite) == 0 {
		return nil, fmt.Errorf("core: no trial reached the system failure criterion")
	}
	ecdf, err := stat.NewECDF(finite)
	if err != nil {
		return nil, err
	}
	// Reuse GridReport with the flattened single-pair view for percentile
	// accessors; the per-pattern Models map is not meaningful here.
	return &GridReport{
		Analysis: GridAnalysis{
			Grid:            m.Grid.Grid,
			ArrayN:          m.ArrayN,
			ArrayCriterion:  m.ArrayCriterion,
			SystemCriterion: m.SystemCriterion,
			IRDropFrac:      m.IRDropFrac,
			CharTrials:      m.CharTrials,
			GridTrials:      m.GridTrials,
			Seed:            m.Seed,
		},
		MC:  res,
		TTF: ecdf,
	}, nil
}
