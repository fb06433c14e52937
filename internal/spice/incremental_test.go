package spice

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"emvia/internal/solver"
	"emvia/internal/sparse"
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
func solveAll(t *testing.T, c *Circuit) (*OP, []float64) {
	t.Helper()
	op, err := c.SolveDC()
	if err != nil {
		t.Fatalf("SolveDC: %v", err)
	}
	return op, voltsOf(c, op)
}

// voltsOf copies every node voltage of op.
func voltsOf(c *Circuit, op *OP) []float64 {
	v := make([]float64, c.NumNodes())
	for i := range v {
		v[i] = op.VoltageAt(i)
	}
	return v
}

// coldSolver solves a circuit that has not been solved yet. The
// cross-checks below give it a freshly compiled circuit carrying the edits
// under test, so its answer owes nothing to the incremental machinery.
type coldSolver func(t *testing.T, c *Circuit) []float64

// coldCircuit solves through the circuit's own first solve: a cold
// supernodal factorization of the edited matrix.
func coldCircuit(t *testing.T, c *Circuit) []float64 {
	t.Helper()
	_, v := solveAll(t, c)
	return v
}

// coldReference compiles c and solves its free-node system with an
// independent solver, bypassing the circuit's factor entirely.
func coldReference(solve func(mat *sparse.CSR, rhs []float64) ([]float64, error)) coldSolver {
	return func(t *testing.T, c *Circuit) []float64 {
		t.Helper()
		c.compile()
		x, err := solve(c.asm.mat, c.asm.rhs)
		if err != nil {
			t.Fatalf("reference solve: %v", err)
		}
		op := c.NewOP()
		if err := c.ScatterFree(op, x); err != nil {
			t.Fatal(err)
		}
		return voltsOf(c, op)
	}
}

// coldDense is the exact dense Cholesky reference on the same CSR.
var coldDense = coldReference(func(mat *sparse.CSR, rhs []float64) ([]float64, error) {
	f, err := solver.NewDenseCholeskyFromCSR(mat)
	if err != nil {
		return nil, err
	}
	return f.Solve(rhs)
})

// coldCG is an iterative reference on the same CSR, converged far below the
// comparison budget.
var coldCG = coldReference(func(mat *sparse.CSR, rhs []float64) ([]float64, error) {
	x, _, err := solver.CG(mat, rhs, solver.Options{Tol: 1e-13, M: solver.NewAutoPreconditioner(mat)})
	return x, err
})

// maxRelDiff is the worst node deviation of got from want, relative to
// 1 + |want|.
func maxRelDiff(got, want []float64) float64 {
	worst := 0.0
	for i := range got {
		if d := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// crossCheckIncremental drives one circuit on an n×n mesh through a
// 20-failure sequence with incremental re-solves — rank-one downdates of
// the factor built by the pristine solve — and, at 1, 5 and 20 failures,
// compares every node voltage against cold applied to a freshly compiled
// circuit that receives the same failures before its first solve. The two
// must agree to 1e-10 (relative).
func crossCheckIncremental(t *testing.T, n int, cold coldSolver) {
	t.Helper()
	nl := meshNetlist(t, n)
	failures := meshFailures(t, n)
	inc, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, inc) // pristine solve builds the factor
	milestones := map[int]bool{1: true, 5: true, 20: true}
	for k, ri := range failures {
		if err := inc.DisableResistor(ri); err != nil {
			t.Fatalf("failure %d (R index %d): %v", k+1, ri, err)
		}
		_, vInc := solveAll(t, inc)
		if !milestones[k+1] {
			continue
		}
		ref, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, rj := range failures[:k+1] {
			if err := ref.DisableResistor(rj); err != nil {
				t.Fatal(err)
			}
		}
		worst := maxRelDiff(vInc, cold(t, ref))
		t.Logf("after %2d failures: worst relative deviation %.2e", k+1, worst)
		if worst > 1e-10 {
			t.Errorf("after %d failures: incremental deviates from cold by %g, want ≤ 1e-10", k+1, worst)
		}
	}
}

// TestIncrementalMatchesColdDirect checks the incremental engine on a
// 99-free-node mesh (AMD-ordered) against a dense Cholesky factorization of
// the cold-compiled matrix.
func TestIncrementalMatchesColdDirect(t *testing.T) {
	crossCheckIncremental(t, 10, coldDense)
}

// TestIncrementalMatchesColdCG checks the incremental engine against
// preconditioned CG on the cold-compiled matrix: a reference that shares no
// factorization code with the engine at all.
func TestIncrementalMatchesColdCG(t *testing.T) {
	crossCheckIncremental(t, 10, coldCG)
}

// TestIncrementalMatchesColdSparse pins the sparse up/downdate path against
// cold refactorization on a mesh above solver.NDMinNodes, where the factor is
// nested-dissection-ordered: the incremental circuit chases 20 failures with
// rank-one downdates while the reference factors from scratch at each
// milestone.
func TestIncrementalMatchesColdSparse(t *testing.T) {
	crossCheckIncremental(t, ndMesh, coldCircuit)
}

// ndMesh is the smallest mesh side whose free-node count (n² − 1 with one
// pad) reaches solver.NDMinNodes, so its factor is ND-ordered.
const ndMesh = 65

// TestSolverBackendsAgree solves the same pristine mesh with the circuit's
// supernodal factor and, on the same compiled CSR, with the dense Cholesky
// and CG references. The direct solves are exact and must agree to
// rounding; CG at Tol 1e-13 must land within 1e-8 of them.
func TestSolverBackendsAgree(t *testing.T) {
	nl := meshNetlist(t, 10)
	volts := map[string][]float64{}
	for name, solve := range map[string]coldSolver{"supernodal": coldCircuit, "dense": coldDense, "cg": coldCG} {
		c, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		volts[name] = solve(t, c)
	}
	for _, tc := range []struct {
		a, b string
		tol  float64
	}{{"supernodal", "dense", 1e-12}, {"supernodal", "cg", 1e-8}, {"dense", "cg", 1e-8}} {
		worst := maxRelDiff(volts[tc.a], volts[tc.b])
		t.Logf("%s vs %s: worst relative deviation %.2e", tc.a, tc.b, worst)
		if worst > tc.tol {
			t.Errorf("%s and %s disagree by %g, want ≤ %g", tc.a, tc.b, worst, tc.tol)
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
	solveAll(t, master) // builds the shared factor
	clone := master.Clone()
	_, vC := solveAll(t, clone)
	_, vM := solveAll(t, master)
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
		_, vM = solveAll(t, master)
		_, vC = solveAll(t, clone)
		for i := range vM {
			if vM[i] != vC[i] {
				t.Fatalf("step %d node %d: master %v clone %v (not bit-identical)", step, i, vM[i], vC[i])
			}
		}
	}
	// Per-trial reset must restore both to the same pristine state.
	master.ResetResistors()
	clone.ResetResistors()
	_, vM = solveAll(t, master)
	_, vC = solveAll(t, clone)
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
	solveAll(t, c)
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
	_, vWant := solveAll(t, ref)
	for i, want := range ref.asm.rhs {
		if got := c.asm.rhs[i]; got != want {
			t.Fatalf("RHS %d: restamped %v vs recompiled %v (not bit-identical)", i, got, want)
		}
	}
	c.ResetResistors() // must keep the new loads
	_, vGot := solveAll(t, c)
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
	solveAll(t, c)
	// Rescale every resistor: far more edits than sparseUpdateBudget.
	for i := range nl.Resistors {
		if err := c.SetResistor(i, nl.Resistors[i].Ohms*1.31); err != nil {
			t.Fatal(err)
		}
	}
	_, vGot := solveAll(t, c)

	edited := *nl
	edited.Resistors = append([]Resistor(nil), nl.Resistors...)
	for i := range edited.Resistors {
		edited.Resistors[i].Ohms *= 1.31
	}
	ref, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
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
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i == 0 {
		t.Error("pristine interior resistor carries no current")
	}
	if err := c.DisableResistor(3); err != nil {
		t.Fatal(err)
	}
	op, err = c.SolveDC()
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
	solveAll(t, c)
	if err := c.DisableResistor(5); err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	if err := c.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	if c.ResistorDisabled(5) {
		t.Fatal("resistor still disabled after SetResistor")
	}
	_, vGot := solveAll(t, c)

	ref, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
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
	solveAll(t, c) // cold compile + solve
	// A reset right after the pristine solve snapshots the pristine factor.
	c.ResetResistors()
	_, v0 := solveAll(t, c)
	for _, ri := range []int{1, 7, 12} {
		if err := c.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetResistor(20, 9); err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	c.ResetResistors()
	for _, ri := range []int{1, 7, 12} {
		if c.ResistorDisabled(ri) {
			t.Fatalf("resistor %d still disabled after reset", ri)
		}
	}
	_, v1 := solveAll(t, c)
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
	if _, err := c.SolveDC(); err != nil {
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
// must not touch the heap, on a small AMD-ordered mesh ("direct", the size
// class of the paper's test grids) and on an ND-ordered one ("sparse").
func TestSolveDCIncrementalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mesh int
	}{
		{"direct", 10},
		{"sparse", ndMesh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := meshNetlist(t, tc.mesh)
			c, err := Compile(nl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.SolveDC(); err != nil {
				t.Fatal(err)
			}
			dst := c.NewOP()
			// Warm-up: compile the slot map and reach steady state before
			// counting.
			for i := 0; i < 3; i++ {
				if err := c.DisableResistor(4); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
				if err := c.SetResistor(4, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := c.DisableResistor(4); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
				if err := c.SetResistor(4, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s hot loop allocates %.1f objects per cycle, want 0", tc.name, allocs)
			}
		})
	}
}

// TestDowndateBreakdownRefactors forces a failure downdate to break down and
// checks the circuit recovers by refactoring from its matrix values: the
// factor is first downdated behind the circuit's back by most of a
// resistor's conductance, so removing the whole resistor drives it
// indefinite.
func TestDowndateBreakdownRefactors(t *testing.T) {
	nl := meshNetlist(t, 10)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	ri := meshFailures(t, 10)[3]
	fa, fb, _, _ := c.ResistorTerms(ri)
	s := math.Sqrt(0.999 * c.ResistorConductance(ri))
	if err := c.asm.factor.DowndateEdge(fa, fb, s); err != nil {
		t.Fatalf("setup downdate: %v", err)
	}
	if err := c.DisableResistor(ri); err != nil {
		t.Fatal(err)
	}
	if !c.asm.needRefactor {
		t.Fatal("an indefinite downdate did not mark the factor for refactoring")
	}
	_, vGot := solveAll(t, c)
	ref, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.DisableResistor(ri); err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(vGot, coldDense(t, ref)); d > 1e-10 {
		t.Errorf("recovered solve deviates from cold by %g, want ≤ 1e-10", d)
	}
}

// TestFactorizationFailureSurfaces corrupts the pristine snapshot so that a
// trial reset cannot factor it, and checks the failure reaches the caller:
// both the next SolveDC and the next SolveFreeBatch return an error wrapping
// solver.ErrNotSPD, and a later reset from repaired values recovers.
func TestFactorizationFailureSurfaces(t *testing.T) {
	nl := meshNetlist(t, 10)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	_, v0 := solveAll(t, c)
	if err := c.DisableResistor(4); err != nil { // compiles the snapshots
		t.Fatal(err)
	}
	a := c.asm
	slot := a.mat.SlotIndex(5, 5)
	good := a.mat0[slot]
	a.mat0[slot] = -1
	c.ResetResistors()
	if _, err := c.SolveDC(); !errors.Is(err, solver.ErrNotSPD) {
		t.Fatalf("SolveDC after a failed reset returned %v, want ErrNotSPD", err)
	}
	n := c.NumFree()
	if err := c.SolveFreeBatch(new(solver.Workspace), make([]float64, n), make([]float64, n), 1); !errors.Is(err, solver.ErrNotSPD) {
		t.Fatalf("SolveFreeBatch after a failed reset returned %v, want ErrNotSPD", err)
	}
	a.mat0[slot] = good
	c.ResetResistors()
	_, v1 := solveAll(t, c)
	if d := maxRelDiff(v1, v0); d > 1e-12 {
		t.Errorf("solve after repair deviates from pristine by %g", d)
	}
}
