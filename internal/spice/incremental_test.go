package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// meshNetlist builds an n×n unit-resistance mesh with a 1 V pad at the
// origin and a small load at every other node. Resistor order: all
// horizontal edges row-major, then all vertical edges column-major — tests
// index into this layout to pick failure sequences that cannot island a
// node.
func meshNetlist(t *testing.T, n int) *Netlist {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("V1 n_0_0 0 1.0\n")
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j+1 < n; j++ {
			id++
			fmt.Fprintf(&sb, "R%d n_%d_%d n_%d_%d 1\n", id, i, j, i, j+1)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i+1 < n; i++ {
			id++
			fmt.Fprintf(&sb, "R%d n_%d_%d n_%d_%d 1\n", id, i, j, i+1, j)
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 && j == 0 {
				continue
			}
			k++
			fmt.Fprintf(&sb, "I%d n_%d_%d 0 0.0001\n", k, i, j)
		}
	}
	nl, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("meshNetlist: %v", err)
	}
	return nl
}

// meshFailures returns 20 horizontal-edge resistor indices from interior
// rows of an n×n mesh. Every touched node keeps its vertical edges, so the
// grid stays connected throughout the sequence.
func meshFailures(t *testing.T, n int) []int {
	t.Helper()
	if n < 8 {
		t.Fatalf("mesh too small for 20 interior horizontal failures: n=%d", n)
	}
	var out []int
	for _, row := range []int{2, 4, 6} {
		for j := 0; j < n-1 && len(out) < 20; j++ {
			out = append(out, row*(n-1)+j)
		}
	}
	return out[:20]
}

// solveAll returns every node voltage of a fresh solve.
func solveAll(t *testing.T, c *Circuit, prev *OP) (*OP, []float64) {
	t.Helper()
	op, err := c.SolveDC(prev)
	if err != nil {
		t.Fatalf("SolveDC: %v", err)
	}
	v := make([]float64, c.NumNodes())
	for i := range v {
		v[i] = op.VoltageAt(i)
	}
	return op, v
}

// crossCheckIncremental drives one circuit through a 20-failure sequence
// with incremental re-solves and, at 1, 5 and 20 failures, compares every
// node voltage against a freshly compiled circuit that receives the same
// failures cold. The two must agree to 1e-10 (relative).
func crossCheckIncremental(t *testing.T, configure func(c *Circuit)) {
	t.Helper()
	nl := meshNetlist(t, 10)
	failures := meshFailures(t, 10)
	inc, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	configure(inc)
	op, _ := solveAll(t, inc, nil) // pristine warm-up solve
	milestones := map[int]bool{1: true, 5: true, 20: true}
	for k, ri := range failures {
		if err := inc.DisableResistor(ri); err != nil {
			t.Fatalf("failure %d (R index %d): %v", k+1, ri, err)
		}
		var vInc []float64
		op, vInc = solveAll(t, inc, op)
		if !milestones[k+1] {
			continue
		}
		cold, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		configure(cold)
		for _, rj := range failures[:k+1] {
			if err := cold.DisableResistor(rj); err != nil {
				t.Fatal(err)
			}
		}
		_, vCold := solveAll(t, cold, nil)
		worst := 0.0
		for i := range vInc {
			d := math.Abs(vInc[i]-vCold[i]) / (1 + math.Abs(vCold[i]))
			if d > worst {
				worst = d
			}
		}
		t.Logf("after %2d failures: worst relative deviation %.2e", k+1, worst)
		if worst > 1e-10 {
			t.Errorf("after %d failures: incremental deviates from cold by %g, want ≤ 1e-10", k+1, worst)
		}
	}
}

func TestIncrementalMatchesColdDirect(t *testing.T) {
	// The cold reference circuit applies its edits before the first solve,
	// so it stays on the CG path (the direct factor only activates after a
	// post-compile edit); the tight tolerance keeps the reference within the
	// comparison budget of the exact rank-one-updated factor.
	crossCheckIncremental(t, func(c *Circuit) {
		c.DirectMaxNodes = 1024 // force the dense rank-one update path
		c.Tol = 1e-13
	})
}

func TestIncrementalMatchesColdCG(t *testing.T) {
	crossCheckIncremental(t, func(c *Circuit) {
		c.DirectMaxNodes = -1 // force the preconditioned CG path
		c.Tol = 1e-13
	})
}

// TestIncrementalMatchesColdSparse pins the sparse up/downdate path against
// cold refactorization: the incremental circuit chases 20 failures with
// rank-one downdates of its AMD-ordered factor while the reference refactors
// from scratch at each milestone.
func TestIncrementalMatchesColdSparse(t *testing.T) {
	crossCheckIncremental(t, func(c *Circuit) {
		c.Solver = SolverSparse
	})
}

// TestSolverBackendsAgree solves the same pristine mesh on every backend and
// compares all node voltages pairwise. The direct backends are exact; CG at
// Tol 1e-13 must land within 1e-8 of them.
func TestSolverBackendsAgree(t *testing.T) {
	nl := meshNetlist(t, 10)
	volts := map[string][]float64{}
	for _, mode := range []SolverMode{SolverDense, SolverSparse, SolverCG} {
		c, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		c.Solver = mode
		c.Tol = 1e-13
		_, v := solveAll(t, c, nil)
		if got := c.SolverBackend(); got != mode.String() {
			t.Errorf("SolverBackend() = %q after solving with %v", got, mode)
		}
		volts[mode.String()] = v
	}
	for _, pair := range [][2]string{{"dense", "sparse"}, {"dense", "cg"}, {"sparse", "cg"}} {
		va, vb := volts[pair[0]], volts[pair[1]]
		worst := 0.0
		for i := range va {
			if d := math.Abs(va[i]-vb[i]) / (1 + math.Abs(vb[i])); d > worst {
				worst = d
			}
		}
		t.Logf("%s vs %s: worst relative deviation %.2e", pair[0], pair[1], worst)
		if worst > 1e-8 {
			t.Errorf("%s and %s disagree by %g, want ≤ 1e-8", pair[0], pair[1], worst)
		}
	}
}

// TestCloneBitIdenticalSparse drives a sparse master and its clone through
// the same failure sequence and demands bit-identical voltages at every
// step: the Monte-Carlo workers rely on Clone preserving the exact floating-
// point trajectory of the master.
func TestCloneBitIdenticalSparse(t *testing.T) {
	nl := meshNetlist(t, 10)
	master, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	master.Solver = SolverSparse
	opM, _ := solveAll(t, master, nil) // builds the shared factor
	clone := master.Clone()
	if got, want := clone.SolverBackend(), master.SolverBackend(); got != want {
		t.Fatalf("clone backend %q, master %q", got, want)
	}
	opC, vC := solveAll(t, clone, nil)
	_, vM := solveAll(t, master, opM)
	for i := range vM {
		if vM[i] != vC[i] {
			t.Fatalf("pristine node %d: master %v clone %v (not bit-identical)", i, vM[i], vC[i])
		}
	}
	for step, ri := range meshFailures(t, 10)[:8] {
		if err := master.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
		if err := clone.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
		opM, vM = solveAll(t, master, opM)
		opC, vC = solveAll(t, clone, opC)
		for i := range vM {
			if vM[i] != vC[i] {
				t.Fatalf("step %d node %d: master %v clone %v (not bit-identical)", step, i, vM[i], vC[i])
			}
		}
	}
	// Per-trial reset must restore both to the same pristine state.
	master.ResetResistors()
	clone.ResetResistors()
	_, vM = solveAll(t, master, nil)
	_, vC = solveAll(t, clone, nil)
	for i := range vM {
		if vM[i] != vC[i] {
			t.Fatalf("post-reset node %d: master %v clone %v", i, vM[i], vC[i])
		}
	}
}

// TestSetCurrentMatchesRecompile checks the load-push path used by the grid's
// shared circuit: restamping the current sources in place must match a fresh
// compile of the edited netlist bit for bit, and the edit must survive
// ResetResistors (it is a load change, not a resistor trial edit).
func TestSetCurrentMatchesRecompile(t *testing.T) {
	nl := meshNetlist(t, 8)
	// Diagonal pads at uneven voltages put pad terms into the RHS of many
	// loaded nodes, where a delta-corrected load push would round
	// differently from a fresh stamp.
	for j := 1; j < 8; j++ {
		nl.Voltages = append(nl.Voltages, VoltageSource{
			Name: fmt.Sprintf("VD%d", j), Node: fmt.Sprintf("n_%d_%d", j, j), Volts: 1 - 0.013*float64(j),
		})
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	c.Solver = SolverSparse
	solveAll(t, c, nil)
	if got, want := c.NumCurrents(), len(nl.Currents); got != want {
		t.Fatalf("NumCurrents() = %d, want %d", got, want)
	}
	amps := make([]float64, len(nl.Currents))
	for i := range nl.Currents {
		amps[i] = nl.Currents[i].Amps * (1 + math.Sqrt(float64(i)+0.5))
	}
	if err := c.SetCurrents(amps); err != nil {
		t.Fatal(err)
	}

	edited := *nl
	edited.Currents = append([]CurrentSource(nil), nl.Currents...)
	for i := range edited.Currents {
		edited.Currents[i].Amps = amps[i]
	}
	ref, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	ref.Solver = SolverSparse
	_, vWant := solveAll(t, ref, nil)
	for i, want := range ref.asm.rhs {
		if got := c.asm.rhs[i]; got != want {
			t.Fatalf("RHS %d: restamped %v vs recompiled %v (not bit-identical)", i, got, want)
		}
	}
	c.ResetResistors() // must keep the new loads
	_, vGot := solveAll(t, c, nil)
	for i := range vGot {
		if vGot[i] != vWant[i] {
			t.Fatalf("node %d: pushed %g vs recompiled %g (not bit-identical)", i, vGot[i], vWant[i])
		}
	}
	if err := c.SetCurrents(amps[1:]); err == nil {
		t.Error("SetCurrents with a short slice did not fail")
	}
}

// TestSparseUpdateBudgetRefactors pushes more edits between solves than the
// up/downdate budget allows and checks the deferred refactorization still
// lands on the cold-compile answer.
func TestSparseUpdateBudgetRefactors(t *testing.T) {
	nl := meshNetlist(t, 10)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	c.Solver = SolverSparse
	solveAll(t, c, nil)
	// Rescale every resistor: far more edits than sparseUpdateBudget.
	for i := range nl.Resistors {
		if err := c.SetResistor(i, nl.Resistors[i].Ohms*1.31); err != nil {
			t.Fatal(err)
		}
	}
	_, vGot := solveAll(t, c, nil)

	edited := *nl
	edited.Resistors = append([]Resistor(nil), nl.Resistors...)
	for i := range edited.Resistors {
		edited.Resistors[i].Ohms *= 1.31
	}
	ref, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	ref.Solver = SolverSparse
	_, vWant := solveAll(t, ref, nil)
	for i := range vGot {
		if d := math.Abs(vGot[i]-vWant[i]) / (1 + math.Abs(vWant[i])); d > 1e-10 {
			t.Fatalf("node %d: bulk-edited %g vs recompiled %g (rel %g)", i, vGot[i], vWant[i], d)
		}
	}
}

func TestResistorCurrentZeroWhenDisabled(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i == 0 {
		t.Error("pristine interior resistor carries no current")
	}
	if err := c.DisableResistor(3); err != nil {
		t.Fatal(err)
	}
	op, err = c.SolveDC(op)
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i != 0 {
		t.Errorf("disabled resistor current = %g, want exactly 0", i)
	}
}

// TestSetResistorReenablesDisabled checks that SetResistor on a disabled
// resistor brings it back with the new conductance, matching a circuit that
// never saw the disable.
func TestSetResistorReenablesDisabled(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	c.Tol = 1e-13
	op, _ := solveAll(t, c, nil)
	if err := c.DisableResistor(5); err != nil {
		t.Fatal(err)
	}
	op, _ = solveAll(t, c, op)
	if err := c.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	if c.ResistorDisabled(5) {
		t.Fatal("resistor still disabled after SetResistor")
	}
	_, vGot := solveAll(t, c, op)

	ref, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	ref.Tol = 1e-13
	if err := ref.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref, nil)
	for i := range vGot {
		if d := math.Abs(vGot[i]-vWant[i]) / (1 + math.Abs(vWant[i])); d > 1e-9 {
			t.Fatalf("node %d: re-enabled %g vs fresh %g (rel %g)", i, vGot[i], vWant[i], d)
		}
	}
}

// TestResetResistorsRestoresPristine checks the canonical per-trial reset:
// after arbitrary edits, ResetResistors must reproduce the pristine solve
// exactly.
func TestResetResistorsRestoresPristine(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op0, _ := solveAll(t, c, nil) // cold compile + solve
	// A reset right after the pristine solve builds and snapshots the exact
	// pristine factor, so both compared solves below use the direct path.
	c.ResetResistors()
	_, v0 := solveAll(t, c, op0)
	for _, ri := range []int{1, 7, 12} {
		if err := c.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetResistor(20, 9); err != nil {
		t.Fatal(err)
	}
	op, _ := solveAll(t, c, nil)
	c.ResetResistors()
	for _, ri := range []int{1, 7, 12} {
		if c.ResistorDisabled(ri) {
			t.Fatalf("resistor %d still disabled after reset", ri)
		}
	}
	_, v1 := solveAll(t, c, op)
	for i := range v0 {
		if d := math.Abs(v1[i]-v0[i]) / (1 + math.Abs(v0[i])); d > 1e-10 {
			t.Fatalf("node %d: post-reset %g vs pristine %g", i, v1[i], v0[i])
		}
	}
}

// TestGenerationCounter checks that every topology edit bumps the
// generation, which SolveDC uses to invalidate cached state.
func TestGenerationCounter(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveDC(nil); err != nil {
		t.Fatal(err)
	}
	g0 := c.Generation()
	if err := c.DisableResistor(2); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != g0+1 {
		t.Errorf("generation after disable = %d, want %d", c.Generation(), g0+1)
	}
	// Re-disabling is an idempotent no-op and must not advance the
	// generation.
	if err := c.DisableResistor(2); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != g0+1 {
		t.Errorf("generation after repeated disable = %d, want %d", c.Generation(), g0+1)
	}
	if err := c.SetResistor(2, 1); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != g0+2 {
		t.Errorf("generation after re-enable = %d, want %d", c.Generation(), g0+2)
	}
	c.ResetResistors()
	if c.Generation() != g0+3 {
		t.Errorf("generation after reset = %d, want %d", c.Generation(), g0+3)
	}
}

// TestSolveDCIncrementalAllocs is the allocation budget of the Monte-Carlo
// hot path: once the solver is warm, a disable → re-solve → re-enable cycle
// must not touch the heap, on either solve path.
func TestSolveDCIncrementalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		configure func(c *Circuit)
	}{
		{"direct", func(c *Circuit) { c.DirectMaxNodes = 1024 }},
		{"sparse", func(c *Circuit) { c.Solver = SolverSparse }},
		{"cg", func(c *Circuit) { c.DirectMaxNodes = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := meshNetlist(t, 10)
			c, err := Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			tc.configure(c)
			prev, err := c.SolveDC(nil)
			if err != nil {
				t.Fatal(err)
			}
			dst := c.NewOP()
			// Warm-up: trigger lazy factor construction / preconditioner
			// refresh so steady state is reached before counting.
			for i := 0; i < 3; i++ {
				if err := c.DisableResistor(4); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst, prev); err != nil {
					t.Fatal(err)
				}
				if err := c.SetResistor(4, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst, prev); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := c.DisableResistor(4); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst, prev); err != nil {
					t.Fatal(err)
				}
				if err := c.SetResistor(4, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst, prev); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s hot loop allocates %.1f objects per cycle, want 0", tc.name, allocs)
			}
		})
	}
}
