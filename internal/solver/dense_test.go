package solver

import (
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
