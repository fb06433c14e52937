package pdn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"emvia/internal/mc"
	"emvia/internal/spice"
	"emvia/internal/telemetry"
)

// freshCircuit compiles a copy of nl and solves it: the circuit every
// pristine solve used before the grid kept one compiled circuit.
func freshCircuit(t *testing.T, nl *spice.Netlist) (*spice.Circuit, *spice.OP) {
	t.Helper()
	cp := &spice.Netlist{
		Title:     nl.Title,
		Resistors: append([]spice.Resistor(nil), nl.Resistors...),
		Currents:  append([]spice.CurrentSource(nil), nl.Currents...),
		Voltages:  append([]spice.VoltageSource(nil), nl.Voltages...),
	}
	c, err := spice.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	return c, op
}

// freshSystem builds the reference system from a fresh compile of a copy of
// the grid's netlist. One resistor is opened and restored before the first
// reset, so the pristine snapshot comes from refactoring the pristine values
// rather than from the first solve's factor.
func freshSystem(t *testing.T, cfg TTFConfig) *GridSystem {
	t.Helper()
	c, op := freshCircuit(t, cfg.Grid.Netlist)
	if err := c.DisableResistor(0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetResistor(0, cfg.Grid.Netlist.Resistors[0].Ohms); err != nil {
		t.Fatal(err)
	}
	s := &GridSystem{cfg: cfg, circuit: c, op0: op}
	c.ResetResistors()
	s.opA, s.opB = c.NewOP(), c.NewOP()
	s.i0 = make([]float64, len(cfg.Grid.Vias))
	for k, v := range cfg.Grid.Vias {
		s.i0[k] = math.Abs(op.ResistorCurrent(v.ResistorIndex))
	}
	return s
}

// sameSystem fails unless got and want have bit-identical pristine operating
// points and run bit-identical Monte Carlos (optionally under a mask).
func sameSystem(t *testing.T, got, want *GridSystem, mask []bool) {
	t.Helper()
	for i := 0; i < got.circuit.NumNodes(); i++ {
		if a, b := got.op0.VoltageAt(i), want.op0.VoltageAt(i); a != b {
			t.Fatalf("op0 node %d: %v, fresh compile %v", i, a, b)
		}
	}
	run := func(s *GridSystem) []float64 {
		res, err := mc.RunParallel(func() (mc.System, error) { return s.Clone(), nil },
			mc.Options{Trials: 24, Seed: 5, Workers: 2, Candidates: mask})
		if err != nil {
			t.Fatal(err)
		}
		return res.TTF
	}
	a, b := run(got), run(want)
	for i := range a {
		if a[i] != b[i] && !(math.IsInf(a[i], 1) && math.IsInf(b[i], 1)) {
			t.Fatalf("trial %d TTF %v, fresh compile %v", i, a[i], b[i])
		}
	}
}

// TestTunedGridSystemMatchesFreshCompile is the stale-snapshot regression:
// Tune edits the grid's shared circuit in place, whose pristine snapshots
// then still hold the values before tuning. A system built afterwards must
// match one built from a fresh compile bit for bit, under both criteria —
// trials that restored the pre-tuning resistances would drift.
func TestTunedGridSystemMatchesFreshCompile(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 16, 16
	g := mustGrid(t, spec, 0)
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	for _, crit := range []Criterion{IRDrop, WeakestLink} {
		cfg := TTFConfig{Grid: g, Models: testModels(0.01), Criterion: crit, IRDropFrac: 0.10}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameSystem(t, sys, freshSystem(t, cfg), nil)
	}
}

// TestEditedCacheRefusesReuse edits a resistor through the grid's circuit
// and checks the reuse gate: the next private circuit must be a fresh
// compile, and the system built on it must match the reference.
func TestEditedCacheRefusesReuse(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 16, 16
	g := mustGrid(t, spec, 0.05)
	c, err := g.pristineCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 0 {
		t.Fatal("clone of an unedited grid circuit has a nonzero generation")
	}
	k := g.Vias[len(g.Vias)/2].ResistorIndex
	g.Netlist.Resistors[k].Ohms *= 3
	if _, _, err := g.MaxViaCurrent(); err != nil { // pushes the edit in place
		t.Fatal(err)
	}
	if g.cachedCircuit.Generation() == 0 {
		t.Fatal("pushing a resistor edit left the grid circuit at generation 0")
	}
	if c, err = g.pristineCircuit(); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 0 {
		t.Fatalf("reused the edited grid circuit (generation %d) instead of compiling afresh", c.Generation())
	}
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSystem(t, sys, freshSystem(t, cfg), nil)
}

// TestSharedCircuitBitIdentical runs the served job pipeline — Generate,
// CalibrateLoad, MaxViaCurrent, NewSystem, SteadyScreen, screened Monte
// Carlo — on two AMD-ordered grids and one nested-dissection-ordered grid,
// and checks every result against a reference assembled from fresh compiles
// bit for bit. The whole job must factor the matrix once.
func TestSharedCircuitBitIdentical(t *testing.T) {
	for _, nx := range []int{10, 24, 64} {
		t.Run(fmt.Sprintf("nx%d", nx), func(t *testing.T) {
			spec := PG1Spec()
			spec.NX, spec.NY = nx, nx
			const target = 0.065

			// Reference: every pristine solve on its own fresh compile.
			ref, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, op := freshCircuit(t, ref.Netlist)
			scale := target / op.WorstIRDropFrac(spec.Vdd)
			for i := range ref.Netlist.Currents {
				ref.Netlist.Currents[i].Amps *= scale
			}
			_, op = freshCircuit(t, ref.Netlist)
			refBusiest := 0.0
			for _, v := range ref.Vias {
				refBusiest = math.Max(refBusiest, math.Abs(op.ResistorCurrent(v.ResistorIndex)))
			}
			refIR := op.WorstIRDropFrac(spec.Vdd)

			reg := telemetry.New()
			telemetry.SetDefault(reg)
			defer telemetry.SetDefault(nil)
			g, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CalibrateLoad(target); err != nil {
				t.Fatal(err)
			}
			busiest, ir, err := g.MaxViaCurrent()
			if err != nil {
				t.Fatal(err)
			}
			cfg := TTFConfig{Grid: g, Models: testModels(busiest), Criterion: WeakestLink}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			screen, err := sys.SteadyScreen(ScreenConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mc.RunParallel(func() (mc.System, error) { return sys.Clone(), nil },
				mc.Options{Trials: 24, Seed: 3, Workers: 2, Engine: mc.EngineBoth, Candidates: screen.CandidateMask()}); err != nil {
				t.Fatal(err)
			}
			factorizations := reg.Counter(telemetry.SparseFactorizations).Value()
			telemetry.SetDefault(nil)

			for i, c := range g.Netlist.Currents {
				if c.Amps != ref.Netlist.Currents[i].Amps {
					t.Fatalf("calibrated load %d: %v, fresh compile %v", i, c.Amps, ref.Netlist.Currents[i].Amps)
				}
			}
			if busiest != refBusiest || ir != refIR {
				t.Fatalf("MaxViaCurrent = (%v, %v), fresh compile (%v, %v)", busiest, ir, refBusiest, refIR)
			}
			if factorizations != 1 {
				t.Errorf("job factored the matrix %d times, want 1", factorizations)
			}
			refCfg := TTFConfig{Grid: ref, Models: testModels(refBusiest), Criterion: WeakestLink}
			sameSystem(t, sys, freshSystem(t, refCfg), screen.CandidateMask())
		})
	}
}

// TestGridCacheConcurrentUse runs the grid's read-only analyses from four
// goroutines on one grid; the shared circuit is guarded by the grid's
// mutex, so every caller must see the serial results (and the race detector
// must stay quiet).
func TestGridCacheConcurrentUse(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 24, 24
	g := mustGrid(t, spec, 0.05)
	busiest, _, err := g.MaxViaCurrent()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TTFConfig{Grid: g, Models: testModels(busiest), Criterion: IRDrop, IRDropFrac: 0.10}
	want, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantScreen, err := ScreenGrid(g, ScreenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				imax, _, err := g.MaxViaCurrent()
				if err == nil && imax != busiest {
					err = fmt.Errorf("MaxViaCurrent = %v, want %v", imax, busiest)
				}
				var sys *GridSystem
				if err == nil {
					sys, err = NewSystem(cfg)
				}
				for k := 0; err == nil && k < len(want.i0); k++ {
					if sys.i0[k] != want.i0[k] {
						err = fmt.Errorf("NewSystem via %d current %v, want %v", k, sys.i0[k], want.i0[k])
					}
				}
				var screen *GridScreen
				if err == nil {
					screen, err = ScreenGrid(g, ScreenConfig{})
				}
				for k := 0; err == nil && k < len(wantScreen.ViaStress); k++ {
					if screen.ViaStress[k] != wantScreen.ViaStress[k] {
						err = fmt.Errorf("ScreenGrid via %d stress %v, want %v", k, screen.ViaStress[k], wantScreen.ViaStress[k])
					}
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}
