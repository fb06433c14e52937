package pdn

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
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
// the grid's netlist.
func freshSystem(t *testing.T, cfg TTFConfig) *GridSystem {
	t.Helper()
	c, op := freshCircuit(t, cfg.Grid.Netlist)
	s, err := newSystem(cfg, c, op)
	if err != nil {
		t.Fatal(err)
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

// TestTunedGridSystemMatchesFreshCompile checks the resistor-change path:
// Tune rescales the wires, so the grid's circuit is re-derived by numeric
// refactors on the symbolic structure of its first compile. A system built
// afterwards must match one built from a fresh compile bit for bit, under
// both criteria.
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

// TestEditedCacheRefusesReuse edits a via resistor in the grid's netlist
// after the grid has solved and checks the reuse gate: the next pristine
// solve must derive a new circuit and leave the old one as it was, an
// unchanged netlist must reuse the new one, and the system built on it must
// match one from a fresh compile bit for bit.
func TestEditedCacheRefusesReuse(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 16, 16
	g := mustGrid(t, spec, 0.05)
	c, op, err := g.pristine(nil)
	if err != nil {
		t.Fatal(err)
	}
	k := g.Vias[len(g.Vias)/2].ResistorIndex
	g0 := c.ResistorConductance(k)
	g.Netlist.Resistors[k].Ohms *= 3
	edited, editedOP, err := g.pristine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if edited == c || editedOP == op {
		t.Fatal("reused the grid circuit after a resistor edit")
	}
	if c.ResistorConductance(k) != g0 {
		t.Fatal("the edit changed the circuit an earlier caller holds")
	}
	if again, _, err := g.pristine(nil); err != nil || again != edited {
		t.Fatalf("an unchanged netlist re-derived the circuit (err %v)", err)
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
// Carlo — on nx10, nx24 and nx64 grids, and checks every result against a
// reference assembled from fresh compiles bit for bit. The whole job must factor the matrix once.
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
	wantScreen, err := screenSteady(g)
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
					screen, err = screenSteady(g)
				}
				for k := 0; err == nil && k < len(wantScreen.ViaStress); k++ {
					if screen.ViaStress[k] != wantScreen.ViaStress[k] {
						err = fmt.Errorf("steady screen via %d stress %v, want %v", k, screen.ViaStress[k], wantScreen.ViaStress[k])
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

// TestGridMapsMatchFreshCompile checks the grid's read-only analyses that
// take the shared pristine solve — the power map, the steady screen and the
// IR-drop SVG — on a grid whose circuit Tune has re-derived: each must
// give exactly what a grid compiling a copy of the same netlist afresh
// gives.
func TestGridMapsMatchFreshCompile(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 16, 16
	g := mustGrid(t, spec, 0)
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	nl := *g.Netlist
	nl.Resistors = append([]spice.Resistor(nil), g.Netlist.Resistors...)
	nl.Currents = append([]spice.CurrentSource(nil), g.Netlist.Currents...)
	fresh := &Grid{Spec: g.Spec, Netlist: &nl, Vias: g.Vias}

	pg, err := g.PowerMap()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fresh.PowerMap()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pf {
		if math.Float64bits(pg[i]) != math.Float64bits(pf[i]) {
			t.Fatalf("power map cell %d: %v, fresh compile %v", i, pg[i], pf[i])
		}
	}
	sg0, err := screenSteady(g)
	if err != nil {
		t.Fatal(err)
	}
	sf0, err := screenSteady(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameScreen(sg0, sf0); err != nil {
		t.Fatalf("steady screen vs a fresh compile's: %v", err)
	}
	var sg, sf bytes.Buffer
	if err := g.WriteIRDropSVG(&sg, 320); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteIRDropSVG(&sf, 320); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sg.Bytes(), sf.Bytes()) {
		t.Fatal("IR-drop SVG differs from a fresh compile's")
	}
}

// sameScreen compares two steady screens bit for bit: every per-node and
// per-branch wire stress, every via array's stress and margin, and every
// classification.
func sameScreen(a, b *GridScreen) error {
	floats := []struct {
		name string
		x, y []float64
	}{
		{"wire node stress", a.Wire.Stress, b.Wire.Stress},
		{"wire branch stress", a.Wire.BranchStress, b.Wire.BranchStress},
		{"via stress", a.ViaStress, b.ViaStress},
		{"via margin", a.ViaMargin, b.ViaMargin},
	}
	for _, f := range floats {
		if len(f.x) != len(f.y) {
			return fmt.Errorf("%s: %d entries, want %d", f.name, len(f.x), len(f.y))
		}
		for i := range f.x {
			if math.Float64bits(f.x[i]) != math.Float64bits(f.y[i]) {
				return fmt.Errorf("%s %d: %v, want %v", f.name, i, f.x[i], f.y[i])
			}
		}
	}
	if !reflect.DeepEqual(a.Wire.BranchMortal, b.Wire.BranchMortal) || !reflect.DeepEqual(a.ViaMortal, b.ViaMortal) {
		return fmt.Errorf("mortal classification differs")
	}
	if a.MortalSegments != b.MortalSegments || a.Segments != b.Segments || a.MortalVias != b.MortalVias || a.Vias != b.Vias {
		return fmt.Errorf("counts %d/%d segments, %d/%d vias; want %d/%d, %d/%d",
			a.MortalSegments, a.Segments, a.MortalVias, a.Vias, b.MortalSegments, b.Segments, b.MortalVias, b.Vias)
	}
	return nil
}

// TestShardGridBuildsConcurrent runs the three shards of one sharded
// IR-drop job at once, each generating, calibrating and factoring its own
// grid from the job's spec as an in-process shard does, and requires every
// shard's trials to match the same shard run alone afterwards. All the
// shards' circuits, and the private copies the cascade rebases on, share one
// sparsity pattern, so the concurrent builds meet in the solver's symbolic
// memo.
func TestShardGridBuildsConcurrent(t *testing.T) {
	spec := smallSpec()
	spec.NX, spec.NY = 13, 13
	const trials, shards = 24, 3
	runShard := func(s int) (*mc.Result, error) {
		g, err := Generate(spec)
		if err != nil {
			return nil, err
		}
		if err := g.CalibrateLoad(0.05); err != nil {
			return nil, err
		}
		busiest, _, err := g.MaxViaCurrent()
		if err != nil {
			return nil, err
		}
		cfg := TTFConfig{Grid: g, Models: testModels(busiest), Criterion: IRDrop, IRDropFrac: 0.10}
		opt := mc.Options{Trials: trials / shards, FirstTrial: s * trials / shards, Seed: 17, Workers: 1, RunToCompletion: true}
		res, _, err := Analyze(context.Background(), cfg, ScreenConfig{}, opt)
		return res, err
	}
	concurrent := make([]*mc.Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			concurrent[s], errs[s] = runShard(s)
		}(s)
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
		serial, err := runShard(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(concurrent[s].EventComps, serial.EventComps) {
			t.Fatalf("shard %d: concurrent failure sequences differ from the serial run", s)
		}
		for i, want := range serial.TTF {
			if got := concurrent[s].TTF[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shard %d trial %d: concurrent TTF %v, serial %v", s, i, got, want)
			}
		}
	}
}
