package pdn

import (
	"fmt"
	"math"
	"slices"

	"emvia/internal/spice"
	"emvia/internal/trace"
)

// MaxViaCurrent solves the pristine grid and returns the largest via-array
// current magnitude (A) together with the worst IR-drop fraction.
func (g *Grid) MaxViaCurrent() (maxAmps, irFrac float64, err error) {
	_, op, err := g.pristine(nil)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range g.Vias {
		if i := math.Abs(op.ResistorCurrent(v.ResistorIndex)); i > maxAmps {
			maxAmps = i
		}
	}
	return maxAmps, op.WorstIRDropFrac(g.Spec.Vdd), nil
}

// pristine returns the grid's compiled circuit for the current netlist
// values and its solved operating point, recording the "compile" and
// "factorize" stage spans on tl (nil records nothing). The grid compiles its
// netlist once and keeps the circuit; a later call derives a new circuit only
// when the netlist values have changed since: a load change restamps the
// right-hand side into a circuit that shares the matrix and factor
// (spice.Circuit.WithCurrents), and a resistor change refactors numerically
// on the same symbolic structure (WithResistances). Either way the circuit is
// bit-identical to a fresh Compile of the netlist. It is solved once, under
// g.mu, and every caller — calibration, reference current, system build,
// screens, power and IR maps — gets the same circuit and operating point,
// both read-only. Any element-count change recompiles from scratch; callers
// that rewire terminals or change pad voltages at constant counts must drop
// the cache by clearing Grid.circuit (no in-tree caller does).
func (g *Grid) pristine(tl *trace.Timeline) (*spice.Circuit, *spice.OP, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	endCompile := tl.Stage("compile")
	nl := g.Netlist
	ohms := make([]float64, len(nl.Resistors))
	for i, r := range nl.Resistors {
		ohms[i] = r.Ohms
	}
	amps := make([]float64, len(nl.Currents))
	for i, s := range nl.Currents {
		amps[i] = s.Amps
	}
	c, err := g.circuit, error(nil)
	switch {
	case c == nil || len(ohms) != len(g.ohms) || len(amps) != len(g.amps) || len(nl.Voltages) != g.volts:
		c, err = spice.Compile(nl)
	case !slices.Equal(ohms, g.ohms):
		if c, err = c.WithResistances(ohms); err == nil {
			c, err = c.WithCurrents(amps)
		}
	case !slices.Equal(amps, g.amps):
		c, err = c.WithCurrents(amps)
	}
	endCompile()
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: compiling grid: %w", err)
	}
	endFactorize := tl.Stage("factorize")
	defer endFactorize()
	if c == g.circuit {
		return c, g.op, nil
	}
	op, err := c.SolveDC()
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: pristine solve: %w", err)
	}
	g.circuit, g.op, g.ohms, g.amps, g.volts = c, op, ohms, amps, len(nl.Voltages)
	return c, op, nil
}

// Tune adjusts the grid the way the paper tunes the benchmark decks: load
// currents are scaled so the busiest via array carries targetViaAmps (the
// via-array characterization reference current, keeping the 1/I² TTF scaling
// near unity), and wire resistances are scaled so the pristine worst IR drop
// equals targetIRFrac of Vdd. Because loads scale currents linearly and wire
// resistance scales IR nearly linearly at fixed currents, two or three fixed-
// point sweeps converge tightly.
func (g *Grid) Tune(targetIRFrac, targetViaAmps float64) error {
	if targetIRFrac <= 0 || targetIRFrac >= 1 {
		return fmt.Errorf("pdn: target IR fraction must be in (0,1), got %g", targetIRFrac)
	}
	if targetViaAmps <= 0 {
		return fmt.Errorf("pdn: target via current must be positive, got %g", targetViaAmps)
	}
	isVia := make([]bool, len(g.Netlist.Resistors))
	for _, v := range g.Vias {
		isVia[v.ResistorIndex] = true
	}
	for iter := 0; iter < 5; iter++ {
		imax, ir, err := g.MaxViaCurrent()
		if err != nil {
			return err
		}
		if imax <= 0 || ir <= 0 {
			return fmt.Errorf("pdn: degenerate grid during tuning (imax=%g, ir=%g)", imax, ir)
		}
		loadScale := targetViaAmps / imax
		for i := range g.Netlist.Currents {
			g.Netlist.Currents[i].Amps *= loadScale
		}
		g.Spec.TotalLoad *= loadScale
		// IR scales with the loads; the residual gap is closed by the wires.
		ir *= loadScale
		wireScale := targetIRFrac / ir
		// Do not let a single sweep overshoot wildly; convergence is fast
		// anyway and damping keeps via currents near their target.
		if wireScale > 10 {
			wireScale = 10
		}
		if wireScale < 0.1 {
			wireScale = 0.1
		}
		for i := range g.Netlist.Resistors {
			if !isVia[i] {
				g.Netlist.Resistors[i].Ohms *= wireScale
			}
		}
		if wireScale > 0.98 && wireScale < 1.02 && loadScale > 0.98 && loadScale < 1.02 {
			break
		}
	}
	imax, ir, err := g.MaxViaCurrent()
	if err != nil {
		return err
	}
	if math.Abs(imax-targetViaAmps)/targetViaAmps > 0.05 || math.Abs(ir-targetIRFrac)/targetIRFrac > 0.05 {
		return fmt.Errorf("pdn: tuning did not converge: via current %g (target %g), IR %.3f (target %.3f)",
			imax, targetViaAmps, ir, targetIRFrac)
	}
	return nil
}
