package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emvia/internal/par"
	"emvia/internal/sparse"
)

// blockDiag stacks two square matrices into one block-diagonal system.
func blockDiag(a, b *sparse.CSR) *sparse.CSR {
	na, _ := a.Dims()
	nb, _ := b.Dims()
	n := na + nb
	tr := sparse.NewTriplet(n, n, a.NNZ()+b.NNZ())
	for i := 0; i < na; i++ {
		cols, vals := a.Row(i)
		for t, c := range cols {
			tr.Add(i, c, vals[t])
		}
	}
	for i := 0; i < nb; i++ {
		cols, vals := b.Row(i)
		for t, c := range cols {
			tr.Add(na+i, na+c, vals[t])
		}
	}
	return tr.ToCSR()
}

// solveDense solves a·x = b with the dense Cholesky reference on the same
// CSR — exact, unordered, and independent of the supernodal code.
func solveDense(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	dc, err := NewDenseCholeskyFromCSR(a)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	x, err := dc.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// maxScaledDiff is the largest entrywise difference of x and ref relative to
// ref's largest magnitude.
func maxScaledDiff(x, ref []float64) float64 {
	scale := 0.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	return maxAbsDiff(x, ref) / scale
}

// TestSupernodalMatchesDense cross-checks the supernodal factor under AMD
// and nested-dissection orderings against the dense Cholesky reference,
// which factors the same CSR without reordering; all are exact, so the
// solutions must agree to rounding.
func TestSupernodalMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	systems := []*sparse.CSR{
		gridLaplacian(15, 17),
		laplacian1D(64),
	}
	spd, _ := randomSPD(rng, 48)
	systems = append(systems, spd)
	for ci, a := range systems {
		n, _ := a.Dims()
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd := solveDense(t, a, b)
		for _, ord := range []struct {
			name string
			perm []int
		}{{"amd", AMDOrder(a)}, {"nd", NDOrder(a)}} {
			sup, err := NewSupernodalCholeskyOrdered(a, ord.perm, nil)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, ord.name, err)
			}
			xs := make([]float64, n)
			if err := sup.SolveInto(xs, b); err != nil {
				t.Fatal(err)
			}
			if d := maxScaledDiff(xs, xd); d > 1e-10 {
				t.Fatalf("case %d %s: supernodal vs dense differ by %g", ci, ord.name, d)
			}
		}
	}
}

// TestSupernodalBatchSolveBitIdentical pins the batch-solve contract:
// SolveBatchInto and SolveWith must reproduce looped SolveInto calls bit for
// bit, not just to rounding, whichever kernel the group width routes to
// (looped single vectors, the variable-width pass, the 16-lane pass, and a
// 16-lane group followed by a tail).
func TestSupernodalBatchSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := gridLaplacian(40, 41)
	n, _ := a.Dims()
	sup, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	for _, nrhs := range []int{1, 2, 4, 5, 7, 8, 16, 21} {
		b := make([]float64, n*nrhs)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		batch := make([]float64, n*nrhs)
		if err := sup.SolveBatchInto(batch, b, nrhs); err != nil {
			t.Fatal(err)
		}
		with := make([]float64, n*nrhs)
		if err := sup.SolveWith(&ws, with, b, nrhs); err != nil {
			t.Fatal(err)
		}
		loop := make([]float64, n)
		for v := 0; v < nrhs; v++ {
			if err := sup.SolveInto(loop, b[v*n:(v+1)*n]); err != nil {
				t.Fatal(err)
			}
			for i := range loop {
				if math.Float64bits(batch[v*n+i]) != math.Float64bits(loop[i]) ||
					math.Float64bits(with[v*n+i]) != math.Float64bits(loop[i]) {
					t.Fatalf("nrhs %d: batch, caller-scratch and looped solve differ at rhs %d entry %d: %x, %x vs %x",
						nrhs, v, i, math.Float64bits(batch[v*n+i]), math.Float64bits(with[v*n+i]), math.Float64bits(loop[i]))
				}
			}
		}
	}
}

// BenchmarkSupernodalSolveRouting times the two kernels that can serve a
// group of one to seven right-hand sides — looped single-vector sweeps and
// the variable-width batched pass — on a 90×90 Laplacian factor (nnz(L)/n
// about 22, close to the power grids'); batchVarMinRHS routes each width to
// the faster one.
func BenchmarkSupernodalSolveRouting(b *testing.B) {
	a := gridLaplacian(90, 90)
	n, _ := a.Dims()
	sup, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		b.Fatal(err)
	}
	for nrhs := 1; nrhs <= 7; nrhs++ {
		rhs := make([]float64, n*nrhs)
		for i := range rhs {
			rhs[i] = 1e-3 * float64(i%17)
		}
		x := make([]float64, n*nrhs)
		zb := make([]float64, n*nrhs)
		b.Run(fmt.Sprintf("loop%d", nrhs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for v := 0; v < nrhs; v++ {
					sup.solveVec(zb[:n], x[v*n:(v+1)*n], rhs[v*n:(v+1)*n])
				}
			}
		})
		b.Run(fmt.Sprintf("var%d", nrhs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sup.solveBatchVar(zb, x, rhs, 0, nrhs)
			}
		})
	}
}

// TestSupernodalWorkerDeterminism is the determinism matrix of ISSUE 6: on an
// nx200-class grid the factor values and solve results must be bit-identical
// at 1, 2, 4 and 8 workers.
func TestSupernodalWorkerDeterminism(t *testing.T) {
	a := gridLaplacian(200, 200)
	n, _ := a.Dims()
	perm := AutoOrder(a)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	var refPx []float64
	var refX []float64
	for _, workers := range []int{1, 2, 4, 8} {
		var pool *par.Pool
		if workers > 1 {
			pool = par.New(workers)
			defer pool.Close()
		}
		c, err := NewSupernodalCholeskyOrdered(a, perm, pool)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		x := make([]float64, n)
		if err := c.SolveInto(x, b); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if refPx == nil {
			refPx = append([]float64(nil), c.px...)
			refX = x
			continue
		}
		for i := range refPx {
			if math.Float64bits(c.px[i]) != math.Float64bits(refPx[i]) {
				t.Fatalf("workers=%d: factor differs from workers=1 at panel entry %d", workers, i)
			}
		}
		for i := range refX {
			if math.Float64bits(x[i]) != math.Float64bits(refX[i]) {
				t.Fatalf("workers=%d: solution differs from workers=1 at %d", workers, i)
			}
		}
	}
}

// TestSupernodalRefactorTracksEdits mirrors a circuit's value change:
// restamp the matrix on the same pattern, RefactorFromCSR, and check against
// a fresh factorization.
func TestSupernodalRefactorTracksEdits(t *testing.T) {
	a := gridLaplacian(25, 25)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	a = withEdgeDelta(a, 5, 30, 2.5)
	a = withEdgeDelta(a, 200, 225, -0.8)
	if err := c.RefactorFromCSR(a); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSupernodalCholeskyOrdered(a, c.Perm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.px {
		if math.Float64bits(c.px[i]) != math.Float64bits(fresh.px[i]) {
			t.Fatalf("refactored panel differs from fresh factorization at %d", i)
		}
	}
	_ = n
}

func TestSupernodalRejectsIndefiniteMatrix(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 3)
	tr.Add(1, 0, 3)
	tr.Add(1, 1, 1)
	if _, err := NewSupernodalCholeskyFromCSR(tr.ToCSR(), nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("factorization of indefinite matrix returned %v, want ErrNotSPD", err)
	}
}

// TestSupernodalSetCloneRestore checks the private numeric copy a circuit
// rebase refactors: a clone refactored from edited values leaves its source
// solving the pristine matrix bit for bit, matches a fresh factorization of
// the edited matrix bit for bit, and refactored back from the pristine
// values restores the source's solution bit for bit.
func TestSupernodalSetCloneRestore(t *testing.T) {
	a := gridLaplacian(14, 14)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	solve := func(f *SupernodalCholesky) []float64 {
		t.Helper()
		x := make([]float64, n)
		if err := f.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		return x
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: solution differs at %d", what, i)
			}
		}
	}
	x0 := solve(c)
	edited := withEdgeDelta(a, 7, 8, -0.75)
	cl := c.Clone()
	if err := cl.RefactorFromCSR(edited); err != nil {
		t.Fatal(err)
	}
	same("source after its clone refactored", solve(c), x0)
	fresh, err := NewSupernodalCholeskyOrdered(edited, c.Perm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	same("refactored clone vs fresh factorization", solve(cl), solve(fresh))
	if err := cl.RefactorFromCSR(a); err != nil {
		t.Fatal(err)
	}
	same("clone refactored back", solve(cl), x0)
}

// TestSupernodalZeroAllocHotPath pins the allocation-free contract of the
// refactor/solve/batch cycle on the serial path.
func TestSupernodalZeroAllocHotPath(t *testing.T) {
	a := gridLaplacian(20, 20)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 4
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n*nrhs)
	if err := c.SolveBatchInto(x, b, nrhs); err != nil { // sizes zb once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveInto(x[:n], b[:n]); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveBatchInto(x, b, nrhs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refactor/solve cycle allocates %v times per run, want 0", allocs)
	}
}

// TestSupernodalPartitionInvariants sanity-checks the supernode partition on
// a mesh: contiguous coverage and width caps.
func TestSupernodalPartitionInvariants(t *testing.T) {
	a := gridLaplacian(30, 31)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(c.snCol[0]) != 0 || int(c.snCol[c.nsup]) != n {
		t.Fatalf("supernode columns do not cover [0, %d)", n)
	}
	for s := 0; s < c.nsup; s++ {
		w := int(c.snCol[s+1] - c.snCol[s])
		if w <= 0 || w > snMaxWidth {
			t.Fatalf("supernode %d has width %d", s, w)
		}
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		if len(rows) < w {
			t.Fatalf("supernode %d has %d rows for width %d", s, len(rows), w)
		}
		for jj := 0; jj < w; jj++ {
			if int(rows[jj]) != int(c.snCol[s])+jj {
				t.Fatalf("supernode %d row list does not start with its own columns", s)
			}
		}
		for u := 1; u < len(rows); u++ {
			if rows[u] <= rows[u-1] {
				t.Fatalf("supernode %d row list not strictly ascending at %d", s, u)
			}
		}
	}
	if c.nsup >= n {
		t.Fatalf("mesh factor found no supernodes wider than one column (%d supernodes for %d columns)", c.nsup, n)
	}
}

// TestSparseCholeskyMatchesDenseAndCG cross-checks the sparse factor against
// the dense Cholesky and CG on random SPD systems: the two factorizations
// are exact, so they must agree to rounding; CG is checked at its own
// tolerance.
func TestSparseCholeskyMatchesDenseAndCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 20 + trial*13
		a, _ := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		sp, err := NewSupernodalCholeskyFromCSR(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, n)
		if err := sp.SolveInto(xs, b); err != nil {
			t.Fatal(err)
		}
		xc, _, err := CG(a, b, Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(xs, solveDense(t, a, b)); d > 1e-10 {
			t.Fatalf("n=%d: sparse vs dense max diff %g", n, d)
		}
		if d := maxAbsDiff(xs, xc); d > 1e-8 {
			t.Fatalf("n=%d: sparse vs CG max diff %g", n, d)
		}
		if r := residual(a, xs, b); r > 1e-12 {
			t.Fatalf("n=%d: sparse residual %g", n, r)
		}
	}
}

// TestSparseCholeskySolvesGrid solves a mesh above NDMinNodes, where the
// default ordering is nested dissection, to a tight residual.
func TestSparseCholeskySolvesGrid(t *testing.T) {
	a := gridLaplacian(70, 61)
	n, _ := a.Dims()
	if n < NDMinNodes {
		t.Fatalf("grid has %d nodes, want at least NDMinNodes = %d", n, NDMinNodes)
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("grid residual %g", r)
	}
}

// TestSparseCholeskyRejectsIndefiniteMatrix covers a negative pivot on the
// diagonal itself (TestSupernodalRejectsIndefiniteMatrix covers an
// off-diagonal-dominated one).
func TestSparseCholeskyRejectsIndefiniteMatrix(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, -1)
	tr.Add(0, 1, 0.5)
	tr.Add(1, 0, 0.5)
	if _, err := NewSupernodalCholeskyFromCSR(tr.ToCSR(), nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite matrix returned %v, want ErrNotSPD", err)
	}
}

// TestSparseCholeskyZeroAlloc pins the allocation-free contract of the
// operations a rebase runs on its private copy: once cloned, refactoring the
// copy and solving against it with a caller's workspace must not allocate.
func TestSparseCholeskyZeroAlloc(t *testing.T) {
	a := gridLaplacian(12, 12)
	n, _ := a.Dims()
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := sp.Clone()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	var ws Workspace
	if err := cl.SolveWith(&ws, x, b, 1); err != nil { // sizes ws once
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := cl.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := cl.SolveWith(&ws, x, b, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state refactor and solve on a clone allocated %v times per run", allocs)
	}
}
