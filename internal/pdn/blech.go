package pdn

import (
	"fmt"
	"math"

	"emvia/internal/emdist"
	"emvia/internal/korhonen"
)

// WireBlechReport summarizes the Blech short-length screening of a grid's
// wire segments: the check behind the paper's §5.2 assumption that "spanning
// voids in wires have a very low probability, and for all practical purposes
// EM failures occur in via arrays". A segment whose j·L product is below the
// Blech threshold saturates below the void-nucleation stress and is immortal.
type WireBlechReport struct {
	// Threshold is the critical j·L product, A/m.
	Threshold float64
	// Segments is the number of wire segments checked (via arrays are
	// excluded — their reliability is the Monte Carlo's job).
	Segments int
	// Mortal is the number of segments whose j·L exceeds the threshold.
	Mortal int
	// WorstJL is the largest observed j·L product, A/m.
	WorstJL float64
}

// ImmortalFraction returns the fraction of wire segments that are
// Blech-immune.
func (r WireBlechReport) ImmortalFraction() float64 {
	if r.Segments == 0 {
		return 1
	}
	return 1 - float64(r.Mortal)/float64(r.Segments)
}

// WireBlechScreen solves the pristine grid and screens every wire segment's
// j·L product against the Blech threshold at effective critical stress
// sigmaCrit (= σ_C − σ_T of the wires). Wire cross-section comes from the
// grid spec; segment length is the stripe pitch.
func (g *Grid) WireBlechScreen(em emdist.Params, sigmaCrit float64) (*WireBlechReport, error) {
	if sigmaCrit <= 0 {
		return nil, fmt.Errorf("pdn: sigmaCrit must be positive, got %g", sigmaCrit)
	}
	area := g.Spec.WireWidth * g.Spec.WireThickness
	if area <= 0 || g.Spec.Pitch <= 0 {
		return nil, fmt.Errorf("pdn: grid spec lacks wire geometry")
	}
	_, op, err := g.pristine(nil)
	if err != nil {
		return nil, err
	}
	isVia := make([]bool, len(g.Netlist.Resistors))
	for _, v := range g.Vias {
		isVia[v.ResistorIndex] = true
	}
	rep := &WireBlechReport{Threshold: korhonen.BlechProduct(em, sigmaCrit)}
	for i := range g.Netlist.Resistors {
		if isVia[i] {
			continue
		}
		j := math.Abs(op.ResistorCurrent(i)) / area
		jl := j * g.Spec.Pitch
		rep.Segments++
		if jl > rep.WorstJL {
			rep.WorstJL = jl
		}
		if !korhonen.Immortal(em, sigmaCrit, j, g.Spec.Pitch) {
			rep.Mortal++
		}
	}
	return rep, nil
}
