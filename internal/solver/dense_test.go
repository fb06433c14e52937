package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDenseCholeskySolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, dense := randomSPD(rng, 12)
	ch, err := NewDenseCholesky(dense, 12)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, 12)
	if err := ch.SolveInto(x2, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x1, x2); d != 0 {
		t.Errorf("SolveInto differs from Solve by %g", d)
	}
	if err := ch.SolveInto(make([]float64, 5), b); err == nil {
		t.Error("SolveInto accepted wrong-length x")
	}
}

func TestDenseCholeskyFromCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a, dense := randomSPD(rng, n)
		cd, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewDenseCholeskyFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd, _ := cd.Solve(b)
		xs, _ := cs.Solve(b)
		if d := maxAbsDiff(xd, xs); d > 1e-12 {
			t.Errorf("trial %d: CSR-built factor differs by %g", trial, d)
		}
	}
}

// TestDenseCholeskyUpdateDowndateMatchesRefactor verifies the LINPACK
// rank-one recurrences against a from-scratch factorization: updating by
// w·wᵀ must match factoring A + w·wᵀ, and downdating back must recover the
// original solve.
func TestDenseCholeskyUpdateDowndateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(15)
		_, dense := randomSPD(rng, n)
		ch, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.3 * rng.NormFloat64()
		}
		// Sparse w with leading zeros, like a via edit touching two nodes.
		for i := 0; i < n/2; i++ {
			w[i] = 0
		}
		updated := make([]float64, n*n)
		copy(updated, dense)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				updated[i*n+j] += w[i] * w[j]
			}
		}
		ref, err := NewDenseCholesky(updated, n)
		if err != nil {
			t.Fatal(err)
		}
		wc := make([]float64, n)
		copy(wc, w)
		ch.Update(wc)

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xu, _ := ch.Solve(b)
		xr, _ := ref.Solve(b)
		if d := maxAbsDiff(xu, xr); d > 1e-9 {
			t.Errorf("trial %d: update vs refactor differ by %g", trial, d)
		}

		// Downdate back to the original matrix.
		copy(wc, w)
		if err := ch.Downdate(wc); err != nil {
			t.Fatalf("trial %d: downdate: %v", trial, err)
		}
		orig, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		xd, _ := ch.Solve(b)
		xo, _ := orig.Solve(b)
		if d := maxAbsDiff(xd, xo); d > 1e-9 {
			t.Errorf("trial %d: downdate did not restore original (diff %g)", trial, d)
		}
	}
}

func TestDenseCholeskyDowndateRejectsIndefinite(t *testing.T) {
	// A = I (2×2); downdating by w = (2,0) would give 1−4 < 0.
	ch, err := NewDenseCholesky([]float64{1, 0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Downdate([]float64{2, 0}); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

func TestDenseCholeskySetAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, d1 := randomSPD(rng, 8)
	_, d2 := randomSPD(rng, 8)
	a, _ := NewDenseCholesky(d1, 8)
	bf, _ := NewDenseCholesky(d2, 8)
	snap := a.Clone()
	if err := a.Set(bf); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 8)
	b[3] = 1
	xa, _ := a.Solve(b)
	xb, _ := bf.Solve(b)
	if d := maxAbsDiff(xa, xb); d != 0 {
		t.Errorf("Set did not copy factor (diff %g)", d)
	}
	// The clone must be unaffected by the Set.
	xs, _ := snap.Solve(b)
	orig, _ := NewDenseCholesky(d1, 8)
	xo, _ := orig.Solve(b)
	if d := maxAbsDiff(xs, xo); d != 0 {
		t.Errorf("Clone aliased the original factor (diff %g)", d)
	}
	if err := a.Set(&DenseCholesky{n: 3, l: make([]float64, 9)}); err == nil {
		t.Error("Set accepted mismatched dimension")
	}
	if err := a.RefactorFromCSR(laplacian1D(5)); err == nil {
		t.Error("RefactorFromCSR accepted mismatched dimension")
	}
}
