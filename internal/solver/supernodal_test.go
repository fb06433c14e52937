package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

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
			tr.Add(i, int(c), vals[t])
		}
	}
	for i := 0; i < nb; i++ {
		cols, vals := b.Row(i)
		for t, c := range cols {
			tr.Add(na+i, na+int(c), vals[t])
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
// and natural orderings against the dense Cholesky reference, which factors
// the same CSR without reordering; all are exact, so the solutions must
// agree to rounding.
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
		}{{"amd", AMDOrder(a)}, {"natural", naturalOrder(n)}} {
			sup, err := newSupernodalCholeskyOrdered(a, ord.perm)
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

// TestSupernodalBatchSolveBitIdentical pins the shared-factor solve
// contract: SolveWith with the caller's scratch must reproduce SolveInto,
// which uses the factor's own, bit for bit, not just to rounding.
func TestSupernodalBatchSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := gridLaplacian(40, 41)
	n, _ := a.Dims()
	sup, err := NewSupernodalCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	with, into := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 4; trial++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := sup.SolveWith(&ws, with, b); err != nil {
			t.Fatal(err)
		}
		if err := sup.SolveInto(into, b); err != nil {
			t.Fatal(err)
		}
		for i := range into {
			if math.Float64bits(with[i]) != math.Float64bits(into[i]) {
				t.Fatalf("trial %d: SolveWith and SolveInto differ at entry %d: %x vs %x",
					trial, i, math.Float64bits(with[i]), math.Float64bits(into[i]))
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
	c, err := NewSupernodalCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	a = withEdgeDelta(a, 5, 30, 2.5)
	a = withEdgeDelta(a, 200, 225, -0.8)
	if err := c.RefactorFromCSR(a); err != nil {
		t.Fatal(err)
	}
	fresh, err := newSupernodalCholeskyOrdered(a, c.Perm())
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

// TestSupernodalRefactorStopsAtFirstFailure gives two disjoint subtrees of
// the elimination tree a non-positive pivot each: the serial refactor must
// report the failing column that comes first in supernode order, and the
// repaired matrix must refactor and solve to rounding of the dense
// reference.
func TestSupernodalRefactorStopsAtFirstFailure(t *testing.T) {
	block := gridLaplacian(6, 7)
	a := blockDiag(block, block) // two independent subtrees
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := make([]int, n)
	for k, p := range c.Perm() {
		inv[p] = k
	}
	nb, _ := block.Dims()
	// Poison the matching node of each block; whichever the ordering
	// eliminates first names the error.
	i0, i1 := 10, nb+10
	first := min(inv[i0], inv[i1])
	if c.snOf[inv[i0]] == c.snOf[inv[i1]] {
		t.Fatal("poisoned nodes share a supernode; the blocks are not independent subtrees")
	}
	err = c.RefactorFromCSR(withDiagonal(a, map[int]float64{i0: -1, i1: -2}))
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("refactor of an indefinite matrix returned %v, want ErrNotSPD", err)
	}
	if want := fmt.Sprintf("permuted column %d", first); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the first failing column (%s)", err, want)
	}
	// The other subtree fails on its own too, at its own column.
	later, laterNode := max(inv[i0], inv[i1]), i1
	if inv[i0] == later {
		laterNode = i0
	}
	err = c.RefactorFromCSR(withDiagonal(a, map[int]float64{laterNode: -1}))
	if want := fmt.Sprintf("permuted column %d", later); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("refactor with only the later pivot poisoned returned %v, want ErrNotSPD at %s", err, want)
	}
	if err := c.RefactorFromCSR(a); err != nil {
		t.Fatalf("refactor of the repaired matrix: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := make([]float64, n)
	if err := c.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if d := maxScaledDiff(x, solveDense(t, a, b)); d > 1e-10 {
		t.Fatalf("repaired factor vs dense differ by %g", d)
	}
}

// withDiagonal returns a copy of a with the listed diagonal entries set.
func withDiagonal(a *sparse.CSR, diag map[int]float64) *sparse.CSR {
	n, _ := a.Dims()
	tr := sparse.NewTriplet(n, n, a.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for t, c := range cols {
			v := vals[t]
			if d, ok := diag[i]; ok && int(c) == i {
				v = d
			}
			tr.Add(i, int(c), v)
		}
	}
	return tr.ToCSR()
}

func TestSupernodalRejectsIndefiniteMatrix(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 3)
	tr.Add(1, 0, 3)
	tr.Add(1, 1, 1)
	if _, err := NewSupernodalCholeskyFromCSR(tr.ToCSR()); !errors.Is(err, ErrNotSPD) {
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
	c, err := NewSupernodalCholeskyFromCSR(a)
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
	fresh, err := newSupernodalCholeskyOrdered(edited, c.Perm())
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
// refactor/solve cycle, on the factor's workspace and on a caller's.
func TestSupernodalZeroAllocHotPath(t *testing.T) {
	a := gridLaplacian(20, 20)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	var ws Workspace
	if err := c.SolveWith(&ws, x, b); err != nil { // sizes ws once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveWith(&ws, x, b); err != nil {
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
	c, err := NewSupernodalCholeskyFromCSR(a)
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
		sp, err := NewSupernodalCholeskyFromCSR(a)
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

// TestSparseCholeskySolvesGrid solves a 4 270-node mesh to a tight residual.
func TestSparseCholeskySolvesGrid(t *testing.T) {
	a := gridLaplacian(70, 61)
	n, _ := a.Dims()
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sp, err := NewSupernodalCholeskyFromCSR(a)
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
	if _, err := NewSupernodalCholeskyFromCSR(tr.ToCSR()); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite matrix returned %v, want ErrNotSPD", err)
	}
}

// TestSparseCholeskyZeroAlloc pins the allocation-free contract of the
// operations a rebase runs on its private copy: once cloned, refactoring the
// copy and solving against it with a caller's workspace must not allocate.
func TestSparseCholeskyZeroAlloc(t *testing.T) {
	a := gridLaplacian(12, 12)
	n, _ := a.Dims()
	sp, err := NewSupernodalCholeskyFromCSR(a)
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
	if err := cl.SolveWith(&ws, x, b); err != nil { // sizes ws once
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := cl.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := cl.SolveWith(&ws, x, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state refactor and solve on a clone allocated %v times per run", allocs)
	}
}
