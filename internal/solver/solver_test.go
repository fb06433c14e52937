package solver

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"emvia/internal/sparse"
)

// randomSPD builds a random SPD matrix A = Bᵀ·B + n·I (dense) and its CSR
// form with a sprinkling of exact zeros kept out of the pattern.
func randomSPD(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b[k*n+i] * b[k*n+j]
			}
			if i == j {
				s += float64(n)
			}
			dense[i*n+j] = s
		}
	}
	tr := sparse.NewTriplet(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tr.Add(i, j, dense[i*n+j])
		}
	}
	return tr.ToCSR(), dense
}

// laplacian1D returns the SPD tridiagonal matrix of a 1-D resistive chain
// with grounded ends: classic well-conditioned test system.
func laplacian1D(n int) *sparse.CSR {
	tr := sparse.NewTriplet(n, n, 3*n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 2)
		if i > 0 {
			tr.Add(i, i-1, -1)
		}
		if i < n-1 {
			tr.Add(i, i+1, -1)
		}
	}
	return tr.ToCSR()
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	r := a.MulVec(x)
	num, den := 0.0, 0.0
	for i := range b {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func TestCGSolvesLaplacian(t *testing.T) {
	n := 50
	a := laplacian1D(n)
	b := make([]float64, n)
	b[n/2] = 1
	x, st, err := CG(a, b, Options{})
	if err != nil {
		t.Fatalf("CG failed: %v", err)
	}
	if res := residual(a, x, b); res > 1e-9 {
		t.Errorf("residual = %g, want < 1e-9", res)
	}
	if st.Iterations == 0 {
		t.Error("CG reported zero iterations for nontrivial solve")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x, st, err := CG(a, make([]float64, 10), Options{})
	if err != nil {
		t.Fatalf("CG failed: %v", err)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %g, want 0", i, v)
		}
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0 for zero rhs", st.Iterations)
	}
}

func TestCGDimensionErrors(t *testing.T) {
	a := laplacian1D(4)
	if _, _, err := CG(a, make([]float64, 3), Options{}); err == nil {
		t.Error("CG accepted mismatched rhs")
	}
	rect := sparse.NewTriplet(2, 3, 0).ToCSR()
	if _, _, err := CG(rect, make([]float64, 3), Options{}); err == nil {
		t.Error("CG accepted non-square matrix")
	}
}

func TestCGNotConverged(t *testing.T) {
	a := laplacian1D(200)
	b := make([]float64, 200)
	b[0] = 1
	_, _, err := CG(a, b, Options{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("err = %v, want ErrNotConverged", err)
	}
}

func TestCGIndefiniteDetected(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 0)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, -1)
	_, _, err := CG(tr.ToCSR(), []float64{0, 1}, Options{})
	if !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
}

func TestPreconditionersAgreeRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		a, _ := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		jac, err := NewJacobi(a)
		if err != nil {
			t.Fatalf("NewJacobi: %v", err)
		}
		ic, err := NewIC0(a)
		if err != nil {
			t.Fatalf("NewIC0: %v", err)
		}
		for name, m := range map[string]Preconditioner{"identity": Identity{}, "jacobi": jac, "ic0": ic} {
			x, _, err := CG(a, b, Options{M: m, Tol: 1e-11})
			if err != nil {
				t.Fatalf("trial %d %s: CG failed: %v", trial, name, err)
			}
			if res := residual(a, x, b); res > 1e-9 {
				t.Errorf("trial %d %s: residual = %g", trial, name, res)
			}
		}
	}
}

func TestIC0ReducesIterations(t *testing.T) {
	n := 400
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	_, plain, err := CG(a, b, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("plain CG: %v", err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	_, pre, err := CG(a, b, Options{Tol: 1e-10, M: ic})
	if err != nil {
		t.Fatalf("IC0 CG: %v", err)
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("IC0 iterations %d not fewer than plain %d", pre.Iterations, plain.Iterations)
	}
}

func TestICOExactOnTridiagonal(t *testing.T) {
	// For a tridiagonal matrix IC(0) equals the exact Cholesky factor, so a
	// single preconditioner application solves the system.
	n := 30
	a := laplacian1D(n)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	x := make([]float64, n)
	ic.Apply(x, b)
	if res := residual(a, x, b); res > 1e-10 {
		t.Errorf("IC0 on tridiagonal: residual = %g, want ~0", res)
	}
}

// TestJacobiRejectsNonpositiveDiagonal checks that every diagonal entry that
// is not finite and positive is rejected with ErrNotSPD naming its row. An
// absent entry reads as zero; NaN and +Inf used to slip past a v <= 0 test
// and poison or zero the preconditioner.
func TestJacobiRejectsNonpositiveDiagonal(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		tr := sparse.NewTriplet(2, 2, 0)
		tr.Add(0, 0, 1)
		tr.Add(1, 1, v)
		_, err := NewJacobi(tr.ToCSR())
		if !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("diagonal %g: err = %v, want ErrNotSPD naming row 1", v, err)
		}
	}
}

func TestDenseCholeskyMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(15)
		a, dense := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatalf("NewDenseCholesky: %v", err)
		}
		xd, err := ch.Solve(b)
		if err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		xi, _, err := CG(a, b, Options{Tol: 1e-12})
		if err != nil {
			t.Fatalf("CG: %v", err)
		}
		for i := range xd {
			if math.Abs(xd[i]-xi[i]) > 1e-6*(1+math.Abs(xd[i])) {
				t.Fatalf("trial %d: dense/CG mismatch at %d: %g vs %g", trial, i, xd[i], xi[i])
			}
		}
	}
}

func TestDenseCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := NewDenseCholesky([]float64{1, 2, 2, 1}, 2); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewDenseCholesky([]float64{1, 2, 3}, 2); err == nil {
		t.Error("accepted wrong-size matrix")
	}
}

// Property: CG solution satisfies A·x = b for random SPD systems of random
// size under every preconditioner.
func TestCGPropertyRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		a, _ := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, _, err := CG(a, b, Options{Tol: 1e-11, M: NewAutoPreconditioner(a)})
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
