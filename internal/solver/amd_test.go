package solver

import (
	"math/rand"
	"testing"

	"emvia/internal/sparse"
)

// gridLaplacian builds the SPD conductance matrix of an nx×ny resistive mesh
// with unit edge conductances and a small leak on every diagonal — the same
// structure (5-point stencil plus gmin) the power-grid compiler produces, so
// these tests exercise the exact pattern class the supernodal factor serves.
func gridLaplacian(nx, ny int) *sparse.CSR {
	n := nx * ny
	tr := sparse.NewTriplet(n, n, 5*n)
	id := func(ix, iy int) int { return ix*ny + iy }
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := id(ix, iy)
			tr.Add(i, i, 1e-3)
			if ix+1 < nx {
				j := id(ix+1, iy)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
			if iy+1 < ny {
				j := id(ix, iy+1)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
		}
	}
	return tr.ToCSR()
}

// withEdgeDelta returns a copy of a with a conductance change dg of edge
// (i, j) stamped in, the way a circuit restamps a changed resistor. The edge
// must be in a's pattern and no entry may cancel to zero, so the copy keeps
// a's pattern.
func withEdgeDelta(a *sparse.CSR, i, j int, dg float64) *sparse.CSR {
	n, _ := a.Dims()
	tr := sparse.NewTriplet(n, n, a.NNZ()+4)
	for r := 0; r < n; r++ {
		cols, vals := a.Row(r)
		for k, c := range cols {
			tr.Add(r, c, vals[k])
		}
	}
	tr.Add(i, i, dg)
	tr.Add(j, j, dg)
	tr.Add(i, j, -dg)
	tr.Add(j, i, -dg)
	return tr.ToCSR()
}

func TestAMDPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*sparse.CSR{
		gridLaplacian(15, 17),
		laplacian1D(40),
	}
	spd, _ := randomSPD(rng, 30)
	cases = append(cases, spd)
	for ci, a := range cases {
		perm := AMDOrder(a)
		inv := InversePermutation(perm)
		for i := range perm {
			if perm[inv[i]] != i || inv[perm[i]] != i {
				t.Fatalf("case %d: perm∘invperm is not the identity at %d", ci, i)
			}
		}
	}
}

func TestAMDReducesGridFill(t *testing.T) {
	a := gridLaplacian(20, 20)
	n, _ := a.Dims()
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	nat, err := NewSupernodalCholeskyOrdered(a, natural, nil)
	if err != nil {
		t.Fatal(err)
	}
	amd, err := NewSupernodalCholeskyOrdered(a, AMDOrder(a), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 20×20 mesh in natural (banded) order fills the whole band; AMD must
	// do clearly better.
	if amd.NNZ() >= nat.NNZ() {
		t.Fatalf("AMD fill %d not below natural-order fill %d", amd.NNZ(), nat.NNZ())
	}
}

func TestAMDDeterministic(t *testing.T) {
	a := gridLaplacian(12, 9)
	p1, p2 := AMDOrder(a), AMDOrder(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("ordering differs at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}
