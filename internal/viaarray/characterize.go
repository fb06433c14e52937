package viaarray

import (
	"fmt"
	"math"

	"emvia/internal/mc"
	"emvia/internal/stat"
)

// TTFModel is the product of via-array characterization: a two-parameter
// lognormal TTF distribution at a reference array current, with the 1/I²
// scaling of equation (3) used to re-target it to the current an array
// actually carries in a power grid (paper §5.1: "the TTF of the via array is
// fitted to a two-parameter lognormal distribution that is sampled during
// power grid TTF analysis").
type TTFModel struct {
	// Dist is the fitted lognormal of the array TTF in seconds at
	// RefCurrent.
	Dist stat.LogNormal
	// RefCurrent is the total array current (A) of the characterization.
	RefCurrent float64
	// FailK is the via-array failure criterion the model was fitted for.
	FailK int
}

// Scale returns the TTF multiplier for an array carrying current (A):
// TTF ∝ 1/I², so arrays carrying less than the reference live longer.
func (m TTFModel) Scale(current float64) float64 {
	if current <= 0 {
		return math.Inf(1)
	}
	r := m.RefCurrent / current
	return r * r
}

// CharResult is a via-array reliability characterization.
type CharResult struct {
	// Config echoes the characterized configuration.
	Config Config
	// MC holds the raw Monte-Carlo outcome (run to completion, so the
	// failure times of every n_F criterion are available).
	MC *mc.Result
	// Samples are the finite system TTFs (seconds) under Config.FailK.
	Samples []float64
	// Model is the lognormal fit of Samples at the reference current.
	Model TTFModel
}

// Characterize runs the Algorithm-1 Monte Carlo for the array and fits the
// lognormal TTF model. Trials follow the paper's N_trials (500 unless the
// caller needs tighter tails). traceLabel names the run in structured traces
// (e.g. "array:Plus-shaped:3x3"); empty falls back to "viaarray".
func Characterize(cfg Config, trials int, seed int64, traceLabel string) (*CharResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if traceLabel == "" {
		traceLabel = "viaarray"
	}
	res, err := mc.RunParallel(func() (mc.System, error) { return New(cfg) }, mc.Options{
		Trials:          trials,
		Seed:            seed,
		RunToCompletion: true,
		TraceLabel:      traceLabel,
	})
	if err != nil {
		return nil, fmt.Errorf("viaarray: characterization MC: %w", err)
	}
	samples := res.FiniteTTF()
	if len(samples) < 2 {
		return nil, fmt.Errorf("viaarray: only %d finite TTF samples; array never reaches criterion n_F=%d", len(samples), cfg.FailK)
	}
	fit, err := stat.FitLogNormal(samples)
	if err != nil {
		return nil, fmt.Errorf("viaarray: fitting TTF lognormal: %w", err)
	}
	return &CharResult{
		Config:  cfg,
		MC:      res,
		Samples: samples,
		Model: TTFModel{
			Dist:       fit,
			RefCurrent: cfg.CurrentDensity * cfg.ViaArea,
			FailK:      cfg.FailK,
		},
	}, nil
}

// CriterionSamples returns the system TTFs under an alternative criterion
// n_F (the k-th via failure times), reusing the run-to-completion events.
func (c *CharResult) CriterionSamples(nF int) []float64 {
	return c.MC.KthFailureTimes(nF)
}
