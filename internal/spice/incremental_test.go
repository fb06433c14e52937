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

// crossCheckIncremental opens a 20-failure sequence on an n×n mesh through
// the pristine circuit's Open — a private numeric refactor on the pristine
// symbolic structure — and, at 1, 5 and 20 failures, compares every node
// voltage against cold applied to a fresh compile of the netlist without the
// failed resistors. The two must agree to 1e-10 (relative).
func crossCheckIncremental(t *testing.T, n int, cold coldSolver) {
	t.Helper()
	nl := meshNetlist(t, n)
	failures := meshFailures(t, n)
	master, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, master) // pristine solve builds the factor
	for _, k := range []int{1, 5, 20} {
		opened, err := master.Open(failures[:k])
		if err != nil {
			t.Fatalf("opening %d failures: %v", k, err)
		}
		// A factor clone shares the symbolic structure, ordering included.
		if &opened.asm.factor.Perm()[0] != &master.asm.factor.Perm()[0] {
			t.Fatalf("opening %d failures did not refactor on the master's symbolic structure", k)
		}
		_, vInc := solveAll(t, opened)
		ref, err := Compile(without(nl, failures[:k]))
		if err != nil {
			t.Fatal(err)
		}
		worst := maxRelDiff(vInc, cold(t, ref))
		t.Logf("after %2d failures: worst relative deviation %.2e", k, worst)
		if worst > 1e-10 {
			t.Errorf("after %d failures: opened circuit deviates from cold by %g, want ≤ 1e-10", k, worst)
		}
	}
}

// without returns a copy of nl without the resistors ris. Node numbering is
// unchanged as long as every node keeps another element.
func without(nl *Netlist, ris []int) *Netlist {
	drop := map[int]bool{}
	for _, i := range ris {
		drop[i] = true
	}
	cp := *nl
	cp.Resistors = nil
	for i, r := range nl.Resistors {
		if !drop[i] {
			cp.Resistors = append(cp.Resistors, r)
		}
	}
	return &cp
}

// scaled returns a copy of nl with every resistor value multiplied by f and
// the values as a slice.
func scaled(nl *Netlist, f float64) (*Netlist, []float64) {
	cp := *nl
	cp.Resistors = append([]Resistor(nil), nl.Resistors...)
	ohms := make([]float64, len(cp.Resistors))
	for i := range cp.Resistors {
		cp.Resistors[i].Ohms *= f
		ohms[i] = cp.Resistors[i].Ohms
	}
	return &cp, ohms
}

// sameVolts fails unless got and want are bit-identical.
func sameVolts(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: node %d %v, want %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestIncrementalMatchesColdDirect checks opened circuits on a 99-free-node
// mesh (AMD-ordered) against a dense Cholesky factorization of the cold
// compile.
func TestIncrementalMatchesColdDirect(t *testing.T) {
	crossCheckIncremental(t, 10, coldDense)
}

// TestIncrementalMatchesColdCG checks opened circuits against preconditioned
// CG on the cold compile: a reference that shares no factorization code with
// the circuit at all.
func TestIncrementalMatchesColdCG(t *testing.T) {
	crossCheckIncremental(t, 10, coldCG)
}

// TestIncrementalMatchesColdSparse pins the opened circuits' refactor on a
// large mesh against a cold compile that orders and factors from scratch.
func TestIncrementalMatchesColdSparse(t *testing.T) {
	crossCheckIncremental(t, largeMesh, coldCircuit)
}

// largeMesh is a mesh side of 4 224 free nodes (n² − 1 with one pad).
const largeMesh = 65

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

// TestCloneBitIdenticalSparse derives circuits from one solved master and
// demands bit-identical voltages wherever the arithmetic is the same: two
// Opens of the same failures agree with each other, a WithCurrents of the
// master's own loads agrees with the master, and the master — read-only
// throughout — still solves to its first answer. Monte-Carlo workers rely on
// this: every worker that rebases a trial on the shared circuit reproduces
// the same trajectory.
func TestCloneBitIdenticalSparse(t *testing.T) {
	nl := meshNetlist(t, 10)
	master, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	_, v0 := solveAll(t, master)
	amps := make([]float64, len(nl.Currents))
	for i, s := range nl.Currents {
		amps[i] = s.Amps
	}
	same, err := master.WithCurrents(amps)
	if err != nil {
		t.Fatal(err)
	}
	_, v := solveAll(t, same)
	sameVolts(t, "WithCurrents of the same loads", v, v0)
	fails := meshFailures(t, 10)[:8]
	a, err := master.Open(fails)
	if err != nil {
		t.Fatal(err)
	}
	b, err := master.Open(fails)
	if err != nil {
		t.Fatal(err)
	}
	_, va := solveAll(t, a)
	_, vb := solveAll(t, b)
	sameVolts(t, "second Open of the same failures", vb, va)
	if maxRelDiff(va, v0) == 0 {
		t.Fatal("opening 8 resistors left every voltage unchanged")
	}
	_, v = solveAll(t, master)
	sameVolts(t, "master after deriving", v, v0)
}

// TestSetCurrentMatchesRecompile checks the load-change path used by the
// grid's shared circuit: WithCurrents restamps the current sources into a
// circuit that shares the matrix and factor, and must match a fresh compile
// of the edited netlist bit for bit, RHS and solve alike, while the source
// circuit keeps its loads.
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
	_, v0 := solveAll(t, c)
	amps := make([]float64, len(nl.Currents))
	for i := range nl.Currents {
		amps[i] = nl.Currents[i].Amps * (1 + math.Sqrt(float64(i)+0.5))
	}
	pushed, err := c.WithCurrents(amps)
	if err != nil {
		t.Fatal(err)
	}
	if pushed.asm.factor != c.asm.factor {
		t.Error("WithCurrents did not share the factor")
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
		if got := pushed.asm.rhs[i]; got != want {
			t.Fatalf("RHS %d: restamped %v vs recompiled %v (not bit-identical)", i, got, want)
		}
	}
	_, vGot := solveAll(t, pushed)
	sameVolts(t, "pushed loads vs recompiled", vGot, vWant)
	_, v := solveAll(t, c)
	sameVolts(t, "source circuit after the push", v, v0)
	if _, err := c.WithCurrents(amps[1:]); err == nil {
		t.Error("WithCurrents with a short slice did not fail")
	}
}

// TestWithResistancesMatchesRecompile rescales every resistor of a solved
// circuit — the bulk wire push of Grid.Tune — and checks that the numeric
// refactor on the source's symbolic structure lands bit for bit on a fresh
// compile of the rescaled netlist, and that the source still solves to its
// own values.
func TestWithResistancesMatchesRecompile(t *testing.T) {
	for _, mesh := range []int{10, largeMesh} {
		nl := meshNetlist(t, mesh)
		c, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		_, v0 := solveAll(t, c)
		edited, ohms := scaled(nl, 1.31)
		tuned, err := c.WithResistances(ohms)
		if err != nil {
			t.Fatal(err)
		}
		// A factor clone shares the symbolic structure, ordering included.
		if &tuned.asm.factor.Perm()[0] != &c.asm.factor.Perm()[0] {
			t.Errorf("mesh %d: WithResistances did not refactor on the source's symbolic structure", mesh)
		}
		ref, err := Compile(edited)
		if err != nil {
			t.Fatal(err)
		}
		_, vWant := solveAll(t, ref)
		_, vGot := solveAll(t, tuned)
		sameVolts(t, fmt.Sprintf("mesh %d: rescaled vs recompiled", mesh), vGot, vWant)
		_, v := solveAll(t, c)
		sameVolts(t, fmt.Sprintf("mesh %d: source after the rescale", mesh), v, v0)
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
	opened, err := c.Open([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	op, err = opened.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i != 0 {
		t.Errorf("opened resistor current = %g, want exactly 0", i)
	}
	all := make([]float64, opened.NumResistors())
	if err := op.ResistorCurrentsInto(all); err != nil {
		t.Fatal(err)
	}
	if all[3] != 0 || opened.ResistorConductance(3) != 0 {
		t.Errorf("opened resistor: bulk current %g, conductance %g, want 0 and 0", all[3], opened.ResistorConductance(3))
	}
}

// TestSetResistorReenablesDisabled gives an opened resistor a new value with
// WithResistances: it conducts again, matching a circuit that never opened
// it bit for bit. The opened circuit lacks the resistor's off-diagonal slots,
// so this also covers a derived circuit whose pattern differs from its
// source's and therefore factors afresh.
func TestSetResistorReenablesDisabled(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	opened, err := c.Open([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, opened)
	edited, ohms := scaled(nl, 1)
	ohms[5], edited.Resistors[5].Ohms = 2.5, 2.5
	back, err := opened.WithResistances(ohms)
	if err != nil {
		t.Fatal(err)
	}
	if back.ResistorConductance(5) != 1/2.5 {
		t.Fatalf("re-enabled conductance %g, want %g", back.ResistorConductance(5), 1/2.5)
	}
	_, vGot := solveAll(t, back)
	ref, err := Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
	sameVolts(t, "re-enabled vs fresh", vGot, vWant)
}

// TestSolveDCIncrementalAllocs is the allocation budget of repeated solves:
// once a circuit has solved, SolveDCInto must not touch the heap — on the
// compiled circuit and on circuits derived by Open and WithCurrents — on a
// small mesh ("direct", the size class of the paper's test grids) and on a
// large one ("sparse").
func TestSolveDCIncrementalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mesh int
	}{
		{"direct", 10},
		{"sparse", largeMesh},
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
			opened, err := c.Open([]int{4})
			if err != nil {
				t.Fatal(err)
			}
			amps := make([]float64, len(nl.Currents))
			loaded, err := c.WithCurrents(amps)
			if err != nil {
				t.Fatal(err)
			}
			dst := c.NewOP()
			for _, circuit := range []*Circuit{c, opened, loaded} {
				if err := circuit.SolveDCInto(dst); err != nil { // warm-up
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				for _, circuit := range []*Circuit{c, opened, loaded} {
					if err := circuit.SolveDCInto(dst); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s solves allocate %.1f objects per cycle, want 0", tc.name, allocs)
			}
		})
	}
}

// TestFactorizationFailureSurfaces gives a circuit a matrix that does not
// factor and checks the failure reaches the caller: SolveDC, SolveFreeBatch
// and Open all return an error wrapping solver.ErrNotSPD, and once the
// matrix is repaired the next solve retries and recovers.
func TestFactorizationFailureSurfaces(t *testing.T) {
	nl := meshNetlist(t, 10)
	ref, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	_, v0 := solveAll(t, ref)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	c.compile()
	good := c.asm.mat
	n := c.NumFree()
	tr := sparse.NewTriplet(n, n, good.NNZ()+1)
	for i := 0; i < n; i++ {
		cols, vals := good.Row(i)
		for k, j := range cols {
			tr.Add(i, int(j), vals[k])
		}
	}
	tr.Add(5, 5, -100)
	c.asm.mat = tr.ToCSR()
	if _, err := c.SolveDC(); !errors.Is(err, solver.ErrNotSPD) {
		t.Fatalf("SolveDC of an indefinite matrix returned %v, want ErrNotSPD", err)
	}
	if err := c.SolveFreeBatch(new(solver.Workspace), make([]float64, n), make([]float64, n), 1); !errors.Is(err, solver.ErrNotSPD) {
		t.Fatalf("SolveFreeBatch of an indefinite matrix returned %v, want ErrNotSPD", err)
	}
	if _, err := c.Open([]int{4}); !errors.Is(err, solver.ErrNotSPD) {
		t.Fatalf("Open of an unfactorable circuit returned %v, want ErrNotSPD", err)
	}
	c.asm.mat = good
	_, v1 := solveAll(t, c)
	sameVolts(t, "solve after repair", v1, v0)
}
