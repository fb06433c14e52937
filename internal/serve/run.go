package serve

import (
	"context"
	"fmt"
	"math"
	"strings"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// buildGrid realizes the spec's grid source: a synthetic generate+calibrate
// or an inline-deck parse. Both paths are deterministic functions of the
// spec.
func buildGrid(spec *JobSpec) (*pdn.Grid, error) {
	if spec.Grid != nil {
		src := spec.Grid
		gs := pdn.PresetSpec(src.Name, src.NX, src.NY, src.PadPeriod)
		gs.Seed = src.Seed
		gs.Vdd = spec.Vdd
		g, err := pdn.Generate(gs)
		if err != nil {
			return nil, err
		}
		if src.CalibrateIR > 0 {
			if err := g.CalibrateLoad(src.CalibrateIR); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	gs := pdn.PG1Spec()
	gs.Vdd = spec.Vdd
	return pdn.LoadDeck(strings.NewReader(spec.Deck), gs)
}

// buildModels realizes the spec's analytic TTF models against the grid: a
// zero reference current means "the busiest array of this grid", resolved
// with one pristine solve (deterministic, so the content-hash contract
// holds).
func buildModels(spec *JobSpec, g *pdn.Grid) (map[cudd.Pattern]viaarray.TTFModel, error) {
	var busiest float64
	needBusiest := false
	for _, m := range spec.Models {
		if m.RefCurrentAmps == 0 {
			needBusiest = true
		}
	}
	if needBusiest {
		imax, _, err := g.MaxViaCurrent()
		if err != nil {
			return nil, fmt.Errorf("serve: resolving reference current: %w", err)
		}
		if imax <= 0 {
			return nil, fmt.Errorf("serve: grid carries no via current to reference models against")
		}
		busiest = imax
	}
	out := make(map[cudd.Pattern]viaarray.TTFModel, len(spec.Models))
	for key, m := range spec.Models {
		pat, err := cudd.ParsePattern(key)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		ref := m.RefCurrentAmps
		if ref == 0 {
			ref = busiest
		}
		out[pat] = viaarray.TTFModel{
			Dist: stat.LogNormal{
				Mu:    math.Log(phys.YearsToSeconds(m.MedianYears)),
				Sigma: m.Sigma,
			},
			RefCurrent: ref,
			FailK:      m.FailK,
		}
	}
	return out, nil
}

// RunOptions parameterizes one Runner execution: the per-job Monte-Carlo
// worker budget, the trace-run label that keys the job's progress and SSE
// cascade stream, and — for distributed shard execution — the trial range
// this run covers. A zero TrialCount selects the spec's full trial range;
// a positive one runs global trials [TrialStart, TrialStart+TrialCount),
// bit-identical to the same slice of a full-range run.
type RunOptions struct {
	Workers    int
	Label      string
	TrialStart int
	TrialCount int
}

// runSpec executes one resolved job spec: the default Runner. The context
// bounds the Monte Carlo (grid build and screening are single solves), and
// pdn.Analyze runs whichever engine the spec names.
func runSpec(ctx context.Context, spec *JobSpec, ro RunOptions) (*runOutput, error) {
	endResolve := trace.TimelineFrom(ctx).Stage("resolve")
	g, err := buildGrid(spec)
	if err != nil {
		endResolve()
		return nil, err
	}
	models, err := buildModels(spec, g)
	endResolve()
	if err != nil {
		return nil, err
	}
	crit, err := pdn.ParseCriterion(spec.Criterion)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	opt := mc.Options{Trials: spec.Trials, Seed: spec.Seed, Workers: ro.Workers, TraceLabel: ro.Label, Engine: spec.Engine}
	if ro.TrialCount > 0 {
		if ro.TrialStart < 0 || ro.TrialStart+ro.TrialCount > spec.Trials {
			return nil, fmt.Errorf("serve: trial range [%d,%d) outside the spec's [0,%d)",
				ro.TrialStart, ro.TrialStart+ro.TrialCount, spec.Trials)
		}
		opt.FirstTrial = ro.TrialStart
		opt.Trials = ro.TrialCount
	}
	cfg := pdn.TTFConfig{Grid: g, Models: models, Criterion: crit, IRDropFrac: spec.IRFrac}
	res, screen, err := pdn.Analyze(ctx, cfg, pdn.ScreenConfig{}, opt)
	if err != nil {
		return nil, err
	}
	return &runOutput{materialHash: core.MaterialHash(), mcResult: res, screen: screenInfo(screen)}, nil
}
