package pdn

import (
	"fmt"
	"math"

	"emvia/internal/spice"
)

// MaxViaCurrent solves the pristine grid and returns the largest via-array
// current magnitude (A) together with the worst IR-drop fraction.
func (g *Grid) MaxViaCurrent() (maxAmps, irFrac float64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, err := g.solveCircuit()
	if err != nil {
		return 0, 0, err
	}
	op, err := c.SolveDC(nil)
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

// solveCircuit returns the grid's own compiled circuit holding the current
// netlist values; the caller holds g.mu. The grid compiles its netlist once
// and keeps the circuit: later calls push resistor values in place and
// restamp the loads, so the pristine solves of calibration, reference
// current, system build and screen share one ordering and one numeric
// factorization, and a load change costs only triangular solves. Loads are
// restamped, not accumulated, so while no resistor value has changed since
// compile (Generation() == 0) the circuit is bit-identical to a fresh
// Compile of the netlist, and pristineCircuit hands out clones of it. Tune
// pushes wire changes, which advance the generation and leave the pristine
// snapshots (res0, mat0) at the values before tuning; the circuit then only
// serves MaxViaCurrent and pristineCircuit compiles afresh. Any
// element-count change recompiles from scratch; callers that rewire
// terminals or change pad voltages at constant counts must drop the cache
// by clearing Grid.cachedCircuit (no in-tree caller does).
func (g *Grid) solveCircuit() (*spice.Circuit, error) {
	nl := g.Netlist
	c := g.cachedCircuit
	if c == nil || c.NumResistors() != len(nl.Resistors) ||
		c.NumCurrents() != len(nl.Currents) || g.cachedVolts != len(nl.Voltages) {
		c, err := spice.Compile(nl)
		if err != nil {
			return nil, err
		}
		g.cachedCircuit = c
		g.cachedVolts = len(nl.Voltages)
		return c, nil
	}
	for i := range nl.Resistors {
		if err := c.SetResistor(i, nl.Resistors[i].Ohms); err != nil {
			return nil, err
		}
	}
	amps := make([]float64, len(nl.Currents))
	for i, s := range nl.Currents {
		amps[i] = s.Amps
	}
	return c, c.SetCurrents(amps)
}

// pristineCircuit returns a private circuit of the current netlist for a
// caller that will edit or keep it: a Clone of the grid's solved circuit,
// which shares its ordering and symbolic factor and carries its numeric
// factor, or a fresh compile once Tune has edited the grid's circuit.
func (g *Grid) pristineCircuit() (*spice.Circuit, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, err := g.solveCircuit()
	if err != nil {
		return nil, err
	}
	if c.Generation() != 0 {
		return spice.Compile(g.Netlist)
	}
	// Solve once so the clone inherits the factor instead of building its
	// own; on a circuit solved before this is a pair of triangular sweeps.
	if _, err := c.SolveDC(nil); err != nil {
		return nil, err
	}
	return c.Clone(), nil
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
