package core

import (
	"fmt"

	"emvia/internal/cudd"
	"emvia/internal/phys"
	"emvia/internal/stat"
)

// ArrayChoice is one evaluated via-array option.
type ArrayChoice struct {
	// ArrayN is the configuration (n×n).
	ArrayN int
	// ExtentM is the lateral array span under the spacing rule, m.
	ExtentM float64
	// WorstCaseYears and MedianYears are the TTF percentiles under the
	// requested criterion.
	WorstCaseYears, MedianYears float64
	// Feasible is false when the configuration violates the wire width or
	// spacing rule (ExtentM and the TTF fields are then zero).
	Feasible bool
	// Reason explains infeasibility.
	Reason string
}

// OptimizeArraySpec frames the designer question the paper's Fig 9
// motivates: given a wire, a via budget and design rules, which array
// configuration maximizes the worst-case lifetime?
type OptimizeArraySpec struct {
	// Pattern is the mesh position of the intersection.
	Pattern cudd.Pattern
	// WireWidth is the wire width, m.
	WireWidth float64
	// ViaSpacing is the minimum via spacing design rule, m (0 = none).
	ViaSpacing float64
	// Candidates lists the n values to evaluate (default 1, 2, 4, 8).
	Candidates []int
	// Criterion is the array failure criterion (default R = 2×).
	Criterion ArrayCriterion
	// J is the total current density over the array, A/m² (default 1e10).
	J float64
	// Trials sizes the Monte Carlo (default 500).
	Trials int
	// Seed drives it.
	Seed int64
}

// OptimizeArray evaluates every candidate configuration with the full
// stress + redundancy pipeline and returns the choices (in candidate order)
// plus the index of the best feasible one by worst-case TTF. Infeasible
// candidates (array no longer fits the wire under the spacing rule) are
// reported, not skipped silently.
func (a *Analyzer) OptimizeArray(spec OptimizeArraySpec) (choices []ArrayChoice, best int, err error) {
	if spec.WireWidth == 0 {
		spec.WireWidth = a.Base.WireWidth
	}
	if len(spec.Candidates) == 0 {
		spec.Candidates = []int{1, 2, 4, 8}
	}
	if spec.Criterion == (ArrayCriterion{}) {
		spec.Criterion = ArrayResistance2x()
	}
	if spec.J == 0 {
		spec.J = a.referenceCurrentDensity()
	}
	if spec.Trials == 0 {
		spec.Trials = 500
	}

	sub := *a
	sub.Base.WireWidth = spec.WireWidth
	sub.Base.ViaSpacing = spec.ViaSpacing

	best = -1
	for i, n := range spec.Candidates {
		v, verr := sub.params(spec.Pattern, sub.Base.LayerPair, n, spec.WireWidth).Validate()
		if verr != nil {
			choices = append(choices, ArrayChoice{ArrayN: n, Reason: verr.Error()})
			continue
		}
		c, cerr := sub.CharacterizeViaArray(spec.Pattern, n, spec.WireWidth, spec.J, spec.Criterion, spec.Trials, spec.Seed+int64(i))
		if cerr != nil {
			return nil, -1, fmt.Errorf("core: optimizing n=%d: %w", n, cerr)
		}
		e, eerr := stat.NewECDF(c.Result.Samples)
		if eerr != nil {
			return nil, -1, eerr
		}
		ch := ArrayChoice{
			ArrayN:         n,
			ExtentM:        v.ArrayExtent(),
			WorstCaseYears: phys.SecondsToYears(e.Percentile(0.003)),
			MedianYears:    phys.SecondsToYears(e.Percentile(0.5)),
			Feasible:       true,
		}
		choices = append(choices, ch)
		if best < 0 || ch.WorstCaseYears > choices[best].WorstCaseYears {
			best = i
		}
	}
	if best < 0 {
		return choices, -1, fmt.Errorf("core: no feasible array configuration for width %.2g m under a %.2g m spacing rule",
			spec.WireWidth, spec.ViaSpacing)
	}
	return choices, best, nil
}
