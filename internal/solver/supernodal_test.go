package solver

import (
	"errors"
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
// SolveBatchInto must reproduce nrhs looped SolveInto calls bit for bit, not
// just to rounding.
func TestSupernodalBatchSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := gridLaplacian(40, 41)
	n, _ := a.Dims()
	const nrhs = 7
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sup, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, n*nrhs)
	if err := sup.SolveBatchInto(batch, b, nrhs); err != nil {
		t.Fatal(err)
	}
	loop := make([]float64, n)
	for v := 0; v < nrhs; v++ {
		if err := sup.SolveInto(loop, b[v*n:(v+1)*n]); err != nil {
			t.Fatal(err)
		}
		for i := range loop {
			if math.Float64bits(batch[v*n+i]) != math.Float64bits(loop[i]) {
				t.Fatalf("batch and looped solve differ at rhs %d entry %d: %x vs %x",
					v, i, math.Float64bits(batch[v*n+i]), math.Float64bits(loop[i]))
			}
		}
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

// TestSupernodalUpdateDowndateMatchesDense drives an edge up/downdate
// sequence through the factor and checks it keeps agreeing with a dense
// factorization of the edited matrix.
func TestSupernodalUpdateDowndateMatchesDense(t *testing.T) {
	a := gridLaplacian(12, 14)
	n, _ := a.Dims()
	sup, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := []struct {
		i, j int
		dg   float64
	}{
		{3, 4, 0.7},
		{20, 34, 1.3},
		{100, 101, 0.25},
		{3, 4, -0.5}, // partial downdate of the first edit
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%11) - 5
	}
	for ei, e := range edges {
		s := math.Sqrt(math.Abs(e.dg))
		if e.dg >= 0 {
			sup.UpdateEdge(e.i, e.j, s)
		} else if err := sup.DowndateEdge(e.i, e.j, s); err != nil {
			t.Fatalf("edit %d: downdate: %v", ei, err)
		}
		applyEdgeDelta(a, e.i, e.j, e.dg)
		xs := make([]float64, n)
		if err := sup.SolveInto(xs, b); err != nil {
			t.Fatal(err)
		}
		if d := maxScaledDiff(xs, solveDense(t, a, b)); d > 1e-10 {
			t.Fatalf("edit %d: updated factor vs dense refactor differ by %g", ei, d)
		}
	}
}

// TestSupernodalRefactorTracksEdits mirrors the engine's epoch protocol:
// mutate the matrix in place, RefactorFromCSR, and check against a fresh
// factorization.
func TestSupernodalRefactorTracksEdits(t *testing.T) {
	a := gridLaplacian(25, 25)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyEdgeDelta(a, 5, 30, 2.5)
	applyEdgeDelta(a, 200, 225, -0.8)
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

func TestSupernodalDowndateRejectsIndefinite(t *testing.T) {
	a := gridLaplacian(10, 10)
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Removing far more conductance than the edge carries drives the matrix
	// indefinite; the downdate must report it.
	if err := c.DowndateEdge(4, 5, 10); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("downdate of indefinite matrix returned %v, want ErrNotSPD", err)
	}
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

func TestSupernodalSetCloneRestore(t *testing.T) {
	a := gridLaplacian(14, 14)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine := c.Clone()
	c.UpdateEdge(7, 8, 1.5)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, n)
	if err := c.SolveInto(x1, b); err != nil {
		t.Fatal(err)
	}
	// Restore by memcpy and verify the pristine solution returns bit-exactly.
	x0 := make([]float64, n)
	if err := pristine.SolveInto(x0, b); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(pristine); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	if err := c.SolveInto(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if math.Float64bits(x0[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("restored factor solution differs at %d", i)
		}
	}
	// A factor of another structure must be rejected, not silently copied.
	other, err := NewSupernodalCholeskyFromCSR(gridLaplacian(9, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(other); err == nil {
		t.Fatal("Set accepted a factor of another structure")
	}
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

// TestSparseCholeskyUpdateDowndateMatchesRefactor drives the factor through
// 1, 5 and 20 sequential edge downdates (EM failures) plus the matching
// restores, comparing against a cold factorization of the edited matrix with
// the same ordering after every edit — the acceptance bar of the incremental
// engine (≤1e-10).
func TestSparseCholeskyUpdateDowndateMatchesRefactor(t *testing.T) {
	a := gridLaplacian(14, 14)
	n, _ := a.Dims()
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	id := func(ix, iy int) int { return ix*14 + iy }
	solveCold := func(m *sparse.CSR, perm []int) []float64 {
		t.Helper()
		cold, err := NewSupernodalCholeskyOrdered(m, perm, nil)
		if err != nil {
			t.Fatalf("cold refactor: %v", err)
		}
		x := make([]float64, n)
		if err := cold.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		return x
	}

	for _, edits := range []int{1, 5, 20} {
		sp, err := NewSupernodalCholeskyFromCSR(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		edited := a.Clone()
		xi := make([]float64, n)
		for e := 0; e < edits; e++ {
			// Interior horizontal edges, each failed once (dg = −1).
			i, j := id(1+e%12, 2+e/12), id(2+e%12, 2+e/12)
			applyEdgeDelta(edited, i, j, -1)
			if err := sp.DowndateEdge(i, j, 1); err != nil {
				t.Fatalf("edits=%d: downdate %d: %v", edits, e, err)
			}
			if err := sp.SolveInto(xi, b); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(xi, solveCold(edited, sp.Perm())); d > 1e-10 {
				t.Fatalf("edits=%d: after edit %d incremental vs cold max diff %g", edits, e, d)
			}
		}
		// Repair every failure (dg = +1) and compare against the pristine
		// matrix: the round trip must come home.
		for e := 0; e < edits; e++ {
			i, j := id(1+e%12, 2+e/12), id(2+e%12, 2+e/12)
			sp.UpdateEdge(i, j, 1)
		}
		if err := sp.SolveInto(xi, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(xi, solveCold(a, sp.Perm())); d > 1e-10 {
			t.Fatalf("edits=%d: restore round trip max diff %g", edits, d)
		}
	}
}

// TestSparseCholeskyGroundedEdge exercises the single-terminal form of the
// edge update (the other terminal is a pad or ground and drops out of u).
func TestSparseCholeskyGroundedEdge(t *testing.T) {
	a := gridLaplacian(9, 9)
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := 40
	sp.UpdateEdge(node, -1, math.Sqrt(0.5)) // extra 0.5 S to ground at one node
	edited := a.Clone()
	edited.AddAt(edited.SlotIndex(node, node), 0.5)
	xi := make([]float64, n)
	if err := sp.SolveInto(xi, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xi, solveDense(t, edited, b)); d > 1e-10 {
		t.Fatalf("grounded-edge update vs cold max diff %g", d)
	}
	sp.UpdateEdge(-1, -1, 1) // both terminals pinned: must be a no-op
	if err := sp.DowndateEdge(-1, -1, 1); err != nil {
		t.Fatalf("pinned-edge downdate: %v", err)
	}
}

// TestSparseCholeskyDowndateRejectsIndefinite checks that a failed downdate
// leaves the factor recoverable: a refactor from the intact matrix must
// solve it again.
func TestSparseCholeskyDowndateRejectsIndefinite(t *testing.T) {
	a := gridLaplacian(6, 6)
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Removing 3 S from a unit edge makes the matrix indefinite.
	if err := sp.DowndateEdge(7, 13, math.Sqrt(3)); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite downdate returned %v, want ErrNotSPD", err)
	}
	// The factor is garbage now, but the workspace invariant must survive a
	// failed downdate: a refactor from the intact matrix has to recover.
	if err := sp.RefactorFromCSR(a); err != nil {
		t.Fatal(err)
	}
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := make([]float64, n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("post-recovery residual %g", r)
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

// TestSparseCholeskySetAndClone checks that a clone does not drift with its
// source: edits to the source leave the clone factoring the pristine matrix.
func TestSparseCholeskySetAndClone(t *testing.T) {
	a := gridLaplacian(8, 8)
	n, _ := a.Dims()
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pristine := sp.Clone()
	sp.DowndateEdge(3, 11, 1) //nolint:errcheck // edge removal on a leaky mesh stays SPD
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	xp := make([]float64, n)
	if err := pristine.SolveInto(xp, b); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSupernodalCholeskyOrdered(a, sp.Perm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	xc := make([]float64, n)
	if err := fresh.SolveInto(xc, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xp, xc); d > 1e-12 {
		t.Fatalf("clone drifted with its source: max diff %g", d)
	}
	// Set restores the pristine factor by memcpy.
	if err := sp.Set(pristine); err != nil {
		t.Fatal(err)
	}
	if err := sp.SolveInto(xp, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xp, xc); d > 1e-12 {
		t.Fatalf("Set did not restore the factor: max diff %g", d)
	}
}

// TestSparseCholeskyZeroAlloc pins the allocation-free contract of the
// failure-edit operations alongside refactor and solve: edge up/downdates
// included.
func TestSparseCholeskyZeroAlloc(t *testing.T) {
	a := gridLaplacian(12, 12)
	n, _ := a.Dims()
	sp, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := sp.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := sp.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if err := sp.DowndateEdge(17, 29, 0.5); err != nil {
			t.Fatal(err)
		}
		sp.UpdateEdge(17, 29, 0.5)
	}); allocs != 0 {
		t.Fatalf("steady-state sparse ops allocated %v times per run", allocs)
	}
}
