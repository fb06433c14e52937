// Package cudd builds the Cu dual-damascene (Cu DD) finite-element models of
// the DAC'17 paper: a lower wire Mx, an upper wire Mx+1, and an n×n via array
// at their intersection, embedded in the full layer stack of Fig. 2
// (Si substrate, SiCOH ILD, Ta liner, Si3N4 capping). The three power-grid
// intersection patterns of Fig. 4 — Plus, T and L — are modelled by letting
// the wires either continue across the domain or terminate at the array.
//
// Characterize runs the thermoelastic solve (package fem) for a structure
// and extracts the quantities the EM flow consumes: the peak tensile
// hydrostatic stress under each via, and line scans of σ_H across via rows
// (Figs 1, 6, 7).
package cudd

import (
	"fmt"
	"math"

	"emvia/internal/phys"
)

// Pattern is the power-grid intersection pattern of Fig. 4.
type Pattern int

// Intersection patterns. In a Plus pattern both wires continue on all four
// sides of the via array (interior of the power mesh); in a T pattern the
// upper wire terminates at the array (mesh edge); in an L pattern both wires
// terminate (mesh corner).
const (
	Plus Pattern = iota
	TShape
	LShape
)

// String names the pattern as in the paper.
func (p Pattern) String() string {
	switch p {
	case Plus:
		return "Plus-shaped"
	case TShape:
		return "T-shaped"
	case LShape:
		return "L-shaped"
	}
	return fmt.Sprintf("cudd.Pattern(%d)", int(p))
}

// ParsePattern maps the short spelling of the command line and the job spec
// ("plus", "t" or "l") to a pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "plus":
		return Plus, nil
	case "t":
		return TShape, nil
	case "l":
		return LShape, nil
	}
	return 0, fmt.Errorf("cudd: unknown pattern %q (want plus, t or l)", s)
}

// Patterns lists all intersection patterns in paper order.
func Patterns() []Pattern { return []Pattern{Plus, TShape, LShape} }

// LayerClass distinguishes intermediate from top metal layers; thickness is
// fixed per class within a technology.
type LayerClass int

// Metal layer classes.
const (
	Intermediate LayerClass = iota
	Top
)

// String names the layer class.
func (c LayerClass) String() string {
	if c == Top {
		return "top"
	}
	return "intermediate"
}

// LayerPair is the (Mx, Mx+1) layer-class combination. The paper
// characterizes three: intermediate–intermediate, intermediate–top, top–top.
type LayerPair struct {
	Lower, Upper LayerClass
}

// LayerPairs lists the three combinations the paper characterizes.
func LayerPairs() []LayerPair {
	return []LayerPair{
		{Intermediate, Intermediate},
		{Intermediate, Top},
		{Top, Top},
	}
}

// String formats the pair like "intermediate-top".
func (lp LayerPair) String() string {
	return lp.Lower.String() + "-" + lp.Upper.String()
}

// Params describes one Cu DD via-array structure to characterize.
type Params struct {
	// Pattern is the intersection pattern (Plus, T, L).
	Pattern Pattern
	// LayerPair selects the metal layer classes of Mx and Mx+1.
	LayerPair LayerPair
	// ArrayN is the via array dimension n (n×n vias). n=1 is a single
	// wide via.
	ArrayN int
	// WireWidth is the width of both wires, m (2 µm is typical for power
	// grids at upper layers).
	WireWidth float64
	// ViaArea is the total copper cross-section of the array, m²; all
	// configurations share it so they share nominal resistance (the paper
	// uses 1 µm²).
	ViaArea float64
	// ViaSpacing is the minimum via-to-via spacing, m. Zero keeps the
	// paper's equal-area geometry (gap = via side). A positive value
	// enforces the design-rule floor the paper lists as future work:
	// large arrays then occupy more area, and Validate rejects arrays
	// that no longer fit the wire.
	ViaSpacing float64
	// AnnealT is the effective stress-free temperature in °C. Cu DD is
	// manufactured at 300–350 °C, but plastic relaxation during cool-down
	// lowers the temperature at which the metallization is stress-free;
	// the 250 °C default also calibrates this compact model (clamped
	// substrate, symmetry rollers) to the 180–280 MPa hydrostatic-stress
	// window the paper's ABAQUS runs report.
	AnnealT float64
	// OperatingT is the worst-case chip operating temperature in °C;
	// ΔT = OperatingT − AnnealT.
	OperatingT float64

	// Geometry of the surrounding stack (all m). Zero values select the
	// 32 nm-class defaults of DefaultParams.
	MetalThicknessIntermediate float64
	MetalThicknessTop          float64
	ViaHeight                  float64
	CapThickness               float64
	LinerThickness             float64 // Ta pad under each via; 0 disables
	Margin                     float64 // ILD margin beyond the wire edges
	SubstrateThickness         float64
	UnderILD                   float64
	OverILD                    float64

	// Mesh resolution caps (m). Zero selects defaults tied to the via size.
	StepArray   float64 // lateral step inside the via-array footprint
	StepOutside float64 // lateral step elsewhere
	StepZMetal  float64 // vertical step inside metal/via layers
	StepZBulk   float64 // vertical step in substrate and bulk ILD
}

// DefaultParams returns the paper's nominal configuration: Plus-shaped 4×4
// array, intermediate–intermediate pair, 2 µm wires, 1 µm² via area,
// stress-free at 250 °C, operated at 105 °C.
func DefaultParams() Params {
	return Params{
		Pattern:                    Plus,
		LayerPair:                  LayerPair{Intermediate, Intermediate},
		ArrayN:                     4,
		WireWidth:                  2 * phys.Micron,
		ViaArea:                    1 * phys.Micron * phys.Micron,
		AnnealT:                    250,
		OperatingT:                 105,
		MetalThicknessIntermediate: 0.45 * phys.Micron,
		MetalThicknessTop:          0.90 * phys.Micron,
		ViaHeight:                  0.35 * phys.Micron,
		CapThickness:               0.10 * phys.Micron,
		LinerThickness:             0.02 * phys.Micron,
		Margin:                     1.6 * phys.Micron,
		SubstrateThickness:         1.2 * phys.Micron,
		UnderILD:                   0.4 * phys.Micron,
		OverILD:                    0.3 * phys.Micron,
	}
}

// Validate checks the parameter set and fills zero geometry fields with
// defaults, returning the completed copy.
func (p Params) Validate() (Params, error) {
	d := DefaultParams()
	if p.ArrayN < 1 {
		return p, fmt.Errorf("cudd: ArrayN must be ≥ 1, got %d", p.ArrayN)
	}
	if p.WireWidth <= 0 {
		return p, fmt.Errorf("cudd: WireWidth must be positive, got %g", p.WireWidth)
	}
	if p.ViaArea <= 0 {
		return p, fmt.Errorf("cudd: ViaArea must be positive, got %g", p.ViaArea)
	}
	fill := func(v *float64, def float64) {
		if *v == 0 {
			*v = def
		}
	}
	fill(&p.MetalThicknessIntermediate, d.MetalThicknessIntermediate)
	fill(&p.MetalThicknessTop, d.MetalThicknessTop)
	fill(&p.ViaHeight, d.ViaHeight)
	fill(&p.CapThickness, d.CapThickness)
	fill(&p.Margin, d.Margin)
	fill(&p.SubstrateThickness, d.SubstrateThickness)
	fill(&p.UnderILD, d.UnderILD)
	fill(&p.OverILD, d.OverILD)
	if p.AnnealT == 0 {
		p.AnnealT = d.AnnealT
	}
	if p.OperatingT == 0 {
		p.OperatingT = d.OperatingT
	}
	if ext := p.arrayExtent(); ext > p.WireWidth {
		return p, fmt.Errorf("cudd: %d×%d array extent %.3g µm exceeds wire width %.3g µm",
			p.ArrayN, p.ArrayN, ext/phys.Micron, p.WireWidth/phys.Micron)
	}
	if p.StepArray == 0 {
		p.StepArray = p.viaSide()
	}
	if p.StepOutside == 0 {
		p.StepOutside = 0.45 * phys.Micron
	}
	if p.StepZMetal == 0 {
		p.StepZMetal = 0.25 * phys.Micron
	}
	if p.StepZBulk == 0 {
		p.StepZBulk = 0.6 * phys.Micron
	}
	return p, nil
}

// viaSide returns the side length of one square via: the n² vias share
// ViaArea, so side = sqrt(ViaArea)/n.
func (p Params) viaSide() float64 {
	return math.Sqrt(p.ViaArea) / float64(p.ArrayN)
}

// viaGap returns the spacing between adjacent vias: the via side by default
// (the paper's equal-area geometry), or the design-rule minimum when larger.
func (p Params) viaGap() float64 {
	s := p.viaSide()
	if p.ViaSpacing > s {
		return p.ViaSpacing
	}
	return s
}

// pitch returns the via centre-to-centre distance (side + gap; 2·side in
// the paper's geometry of Figs 1 and 7).
func (p Params) pitch() float64 { return p.viaSide() + p.viaGap() }

// arrayExtent returns the full lateral span of the array:
// n vias + (n−1) gaps.
func (p Params) arrayExtent() float64 {
	return float64(p.ArrayN)*p.viaSide() + float64(p.ArrayN-1)*p.viaGap()
}

// metalThickness maps a layer class to its thickness.
func (p Params) metalThickness(c LayerClass) float64 {
	if c == Top {
		return p.MetalThicknessTop
	}
	return p.MetalThicknessIntermediate
}

// DeltaT returns the uniform temperature change in K.
func (p Params) DeltaT() float64 { return p.OperatingT - p.AnnealT }

// ViaSide returns the side length of one square via, m.
func (p Params) ViaSide() float64 { return p.viaSide() }

// Pitch returns the via centre-to-centre distance, m.
func (p Params) Pitch() float64 { return p.pitch() }

// ArrayExtent returns the lateral span of the via array, m.
func (p Params) ArrayExtent() float64 { return p.arrayExtent() }

// ViaCenter returns the centre coordinates of via (i, j), 0-indexed from the
// array corner, in the structure's global frame.
func (p Params) ViaCenter(i, j int) (x, y float64) {
	cx, cy := p.domainCenter()
	ext := p.arrayExtent()
	s := p.viaSide()
	x0 := cx - ext/2 + s/2
	y0 := cy - ext/2 + s/2
	return x0 + float64(i)*p.pitch(), y0 + float64(j)*p.pitch()
}

// domainCenter returns the intersection centre in the global frame.
func (p Params) domainCenter() (x, y float64) {
	half := p.WireWidth/2 + p.Margin
	return half, half
}

// domainSize returns the lateral domain side length.
func (p Params) domainSize() float64 {
	return p.WireWidth + 2*p.Margin
}
