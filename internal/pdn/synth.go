// Package pdn models power delivery networks: a synthetic generator for
// IBM-benchmark-style grids (Nassif [16] dialect), IR-drop analysis, and the
// grid-level EM TTF Monte Carlo of the paper's §5.2 in which via arrays are
// the failing components.
//
// The real IBM decks are not redistributable, so the generator synthesizes
// grids with the same structure the paper relies on: a two-layer mesh of
// horizontal and vertical power stripes joined by via arrays at every
// intersection, Vdd pads on the upper layer, and current loads on the lower
// layer. The paper modifies the benchmarks anyway (non-zero via resistances,
// tuned wire geometry for a "reasonable IR drop"); CalibrateLoad reproduces
// that tuning step. Intersections are classified into the paper's Plus, T
// and L patterns by their mesh position (interior, edge, corner).
package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"emvia/internal/cudd"
	"emvia/internal/phys"
	"emvia/internal/spice"
)

// GridSpec parameterizes a synthetic power grid.
type GridSpec struct {
	// Name labels the grid (e.g. "PG1").
	Name string
	// NX, NY are the numbers of vertical and horizontal stripes; the mesh
	// has NX×NY intersections, each with a via array.
	NX, NY int
	// Pitch is the stripe spacing, m.
	Pitch float64
	// WireWidth and WireThickness set the stripe cross-section, m.
	WireWidth, WireThickness float64
	// RhoCu is the wire resistivity, Ω·m.
	RhoCu float64
	// Vdd is the supply voltage, V.
	Vdd float64
	// PadPeriod places a pad every PadPeriod-th intersection in each axis
	// (upper layer); the four corner regions always receive pads.
	PadPeriod int
	// TotalLoad is the summed load current, A, spread over the lower-layer
	// nodes with ±50 % lognormal-ish variation.
	TotalLoad float64
	// ViaArrayR is the nominal (pristine) resistance of each via array, Ω.
	ViaArrayR float64
	// Seed drives the load-distribution randomness.
	Seed int64
}

// Validate checks the specification.
func (s GridSpec) Validate() error {
	if s.NX < 2 || s.NY < 2 {
		return fmt.Errorf("pdn: grid needs at least 2×2 stripes, got %d×%d", s.NX, s.NY)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Pitch", s.Pitch}, {"WireWidth", s.WireWidth}, {"WireThickness", s.WireThickness},
		{"RhoCu", s.RhoCu}, {"Vdd", s.Vdd}, {"TotalLoad", s.TotalLoad}, {"ViaArrayR", s.ViaArrayR},
	} {
		if c.v <= 0 || math.IsNaN(c.v) {
			return fmt.Errorf("pdn: %s must be positive, got %g", c.name, c.v)
		}
	}
	if s.PadPeriod < 1 {
		return fmt.Errorf("pdn: PadPeriod must be ≥ 1, got %d", s.PadPeriod)
	}
	return nil
}

// SegmentResistance returns the wire resistance between adjacent
// intersections.
func (s GridSpec) SegmentResistance() float64 {
	return s.RhoCu * s.Pitch / (s.WireWidth * s.WireThickness)
}

// ViaInfo records one via-array instance in the grid.
type ViaInfo struct {
	// IX, IY locate the intersection.
	IX, IY int
	// Pattern is the paper's intersection classification: L at mesh
	// corners, T on mesh edges, Plus in the interior.
	Pattern cudd.Pattern
	// ResistorIndex is the via array's index into the netlist resistors.
	ResistorIndex int
}

// Grid is a generated (or imported) power grid with via-array metadata.
type Grid struct {
	Spec    GridSpec
	Netlist *spice.Netlist
	Vias    []ViaInfo

	// The grid's compiled circuit and its solved operating point (see
	// pristine), with the netlist values and pad count they were built from.
	// mu guards them, so concurrent read-only analyses of one grid are safe.
	mu         sync.Mutex
	circuit    *spice.Circuit
	op         *spice.OP
	ohms, amps []float64
	volts      int
}

// PatternFor classifies an intersection by mesh position.
func PatternFor(ix, iy, nx, ny int) cudd.Pattern {
	xEdge := ix == 0 || ix == nx-1
	yEdge := iy == 0 || iy == ny-1
	switch {
	case xEdge && yEdge:
		return cudd.LShape
	case xEdge || yEdge:
		return cudd.TShape
	default:
		return cudd.Plus
	}
}

// nodeName builds the benchmark-style node name n<layer>_<ix>_<iy>.
func nodeName(layer, ix, iy int) string {
	return "n" + strconv.Itoa(layer) + "_" + strconv.Itoa(ix) + "_" + strconv.Itoa(iy)
}

// Generate synthesizes the grid netlist. Layer 1 is the lower (load) layer
// with horizontal stripes, layer 2 the upper (pad) layer with vertical
// stripes; via arrays join them at every intersection.
func Generate(spec GridSpec) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	nx, ny := spec.NX, spec.NY
	// Each node's name is built once and shared by every element on it;
	// names[l-1][iy·nx+ix] is node (ix, iy) of layer l.
	var names [2][]string
	for l := range names {
		names[l] = make([]string, nx*ny)
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				names[l][iy*nx+ix] = nodeName(l+1, ix, iy)
			}
		}
	}
	lower, upper := names[0], names[1]
	start := spec.PadPeriod / 2 // first pad row and column (see below)
	pads := (nx - start + spec.PadPeriod - 1) / spec.PadPeriod * ((ny - start + spec.PadPeriod - 1) / spec.PadPeriod)
	nl := &spice.Netlist{
		Title:     spec.Name,
		Resistors: make([]spice.Resistor, 0, ny*(nx-1)+nx*(ny-1)+nx*ny),
		Voltages:  make([]spice.VoltageSource, 0, pads),
		Currents:  make([]spice.CurrentSource, 0, nx*ny),
	}
	seg := spec.SegmentResistance()

	// Lower layer: horizontal stripes (constant iy), segments along ix.
	rid := 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx-1; ix++ {
			rid++
			nl.Resistors = append(nl.Resistors, spice.Resistor{
				Name: "R" + strconv.Itoa(rid),
				A:    lower[iy*nx+ix],
				B:    lower[iy*nx+ix+1],
				Ohms: seg,
			})
		}
	}
	// Upper layer: vertical stripes (constant ix), segments along iy.
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny-1; iy++ {
			rid++
			nl.Resistors = append(nl.Resistors, spice.Resistor{
				Name: "R" + strconv.Itoa(rid),
				A:    upper[iy*nx+ix],
				B:    upper[(iy+1)*nx+ix],
				Ohms: seg,
			})
		}
	}
	// Via arrays at every intersection; remember their resistor indices.
	g := &Grid{Spec: spec, Netlist: nl, Vias: make([]ViaInfo, 0, nx*ny)}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			rid++
			nl.Resistors = append(nl.Resistors, spice.Resistor{
				Name: "Rv" + strconv.Itoa(ix) + "_" + strconv.Itoa(iy),
				A:    lower[iy*nx+ix],
				B:    upper[iy*nx+ix],
				Ohms: spec.ViaArrayR,
			})
			g.Vias = append(g.Vias, ViaInfo{
				IX:            ix,
				IY:            iy,
				Pattern:       PatternFor(ix, iy, nx, ny),
				ResistorIndex: len(nl.Resistors) - 1,
			})
		}
	}
	// Pads on the upper layer, every PadPeriod-th intersection starting
	// half a period in (so the grid perimeter is pad-free, like the
	// benchmarks' C4 bump arrays).
	vid := 0
	for iy := start; iy < ny; iy += spec.PadPeriod {
		for ix := start; ix < nx; ix += spec.PadPeriod {
			vid++
			nl.Voltages = append(nl.Voltages, spice.VoltageSource{
				Name:  "V" + strconv.Itoa(vid),
				Node:  upper[iy*nx+ix],
				Volts: spec.Vdd,
			})
		}
	}
	if vid == 0 {
		return nil, fmt.Errorf("pdn: pad period %d leaves the %d×%d grid padless", spec.PadPeriod, spec.NX, spec.NY)
	}
	// Loads on the lower layer: every node draws a randomized share.
	weights := make([]float64, nx*ny)
	sum := 0.0
	for i := range weights {
		// 0.5–1.5× uniform spread around the mean share.
		weights[i] = 0.5 + rng.Float64()
		sum += weights[i]
	}
	for i := range weights {
		nl.Currents = append(nl.Currents, spice.CurrentSource{
			Name: "I" + strconv.Itoa(i+1),
			A:    lower[i],
			B:    "0",
			Amps: spec.TotalLoad * weights[i] / sum,
		})
	}
	return g, nil
}

// NominalIRDropFrac solves the pristine grid and returns its worst IR drop
// as a fraction of Vdd.
func (g *Grid) NominalIRDropFrac() (float64, error) {
	_, frac, err := g.MaxViaCurrent()
	return frac, err
}

// CalibrateLoad rescales the load currents so the pristine grid's worst IR
// drop equals targetFrac of Vdd — the paper's "tuned the wire geometry ...
// to obtain a reasonable IR drop" step. The network is linear in the loads,
// so one solve suffices.
func (g *Grid) CalibrateLoad(targetFrac float64) error {
	if targetFrac <= 0 || targetFrac >= 1 {
		return fmt.Errorf("pdn: target IR fraction must be in (0,1), got %g", targetFrac)
	}
	cur, err := g.NominalIRDropFrac()
	if err != nil {
		return err
	}
	if cur <= 0 {
		return fmt.Errorf("pdn: grid has no IR drop to calibrate (got %g)", cur)
	}
	scale := targetFrac / cur
	for i := range g.Netlist.Currents {
		g.Netlist.Currents[i].Amps *= scale
	}
	g.Spec.TotalLoad *= scale
	return nil
}

// PatternCounts tallies via arrays per intersection pattern.
func (g *Grid) PatternCounts() map[cudd.Pattern]int {
	m := map[cudd.Pattern]int{}
	for _, v := range g.Vias {
		m[v.Pattern]++
	}
	return m
}

// PG1Spec, PG2Spec and PG5Spec are scaled-down analogues of the IBM power
// grid benchmarks the paper evaluates (the originals are 30k–1.6M nodes; the
// analogues keep the 500-trial Monte Carlo laptop-friendly while preserving
// mesh redundancy, pad density and a tuned nominal IR drop). Sizes grow
// PG1 < PG2 < PG5 like the originals.
func PG1Spec() GridSpec { return pgSpec("PG1", 20, 20, 5, 1) }

// PG2Spec is the mid-size benchmark analogue.
func PG2Spec() GridSpec { return pgSpec("PG2", 30, 30, 6, 2) }

// PG5Spec is the large benchmark analogue.
func PG5Spec() GridSpec { return pgSpec("PG5", 44, 44, 7, 5) }

// PresetSpec resolves a grid name the way the command line and the job spec
// spell it: PG1, PG2 or PG5 in any case select that preset, and any other
// name is a custom grid on the PG1 technology under that name. Positive nx,
// ny and padPeriod override the preset's lattice.
func PresetSpec(name string, nx, ny, padPeriod int) GridSpec {
	var spec GridSpec
	switch strings.ToUpper(name) {
	case "PG1":
		spec = PG1Spec()
	case "PG2":
		spec = PG2Spec()
	case "PG5":
		spec = PG5Spec()
	default:
		spec = PG1Spec()
		spec.Name = name
	}
	if nx > 0 {
		spec.NX = nx
	}
	if ny > 0 {
		spec.NY = ny
	}
	if padPeriod > 0 {
		spec.PadPeriod = padPeriod
	}
	return spec
}

func pgSpec(name string, nx, ny, padPeriod int, seed int64) GridSpec {
	return GridSpec{
		Name:          name,
		NX:            nx,
		NY:            ny,
		Pitch:         100 * phys.Micron,
		WireWidth:     2 * phys.Micron,
		WireThickness: 0.45 * phys.Micron,
		RhoCu:         2.75e-8,
		Vdd:           1.8,
		PadPeriod:     padPeriod,
		TotalLoad:     1.0, // recalibrated by CalibrateLoad
		ViaArrayR:     0.05,
		Seed:          seed,
	}
}
