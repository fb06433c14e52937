package solver

import (
	"math/rand"
	"runtime"
	"testing"

	"emvia/internal/par"
)

// TestCGPoolBitIdentical checks the deterministic-kernel contract: the CG
// iterates, iteration count and residual are bit-identical for any worker
// count, because reductions use fixed-size blocks reduced in block order.
// The dimension spans several dotBlock/rowBlock/vecBlock boundaries plus a
// ragged tail.
func TestCGPoolBitIdentical(t *testing.T) {
	n := 3*dotBlock + 137
	a := laplacian1D(n)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	pre, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	xRef, stRef, err := CG(a, b, Options{Tol: 1e-10, M: pre})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		x, st, err := CG(a, b, Options{Tol: 1e-10, M: pre, Pool: par.New(w)})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if st != stRef {
			t.Errorf("workers=%d stats %+v, serial %+v", w, st, stRef)
		}
		for i := range x {
			if x[i] != xRef[i] {
				t.Fatalf("workers=%d x[%d] = %g, serial %g (not bit-identical)", w, i, x[i], xRef[i])
			}
		}
	}
}

// TestDotDetBlockOrderIndependent cross-checks dotDet against a plain serial
// accumulation only in the blocked order — the two agree exactly because the
// serial branch runs the identical block loop.
func TestDotDetBlockOrderIndependent(t *testing.T) {
	n := 2*dotBlock + 333
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	partials := make([]float64, partialsLen(n))
	serial := dotDet(a, b, partials, nil)
	for _, w := range []int{2, 5, 16} {
		if got := dotDet(a, b, partials, par.New(w)); got != serial {
			t.Errorf("workers=%d dotDet = %g, serial %g", w, got, serial)
		}
	}
}
