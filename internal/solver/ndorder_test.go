package solver

import (
	"testing"
)

func TestNDOrderPermutationRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{9, 11}, {70, 70}} {
		a := gridLaplacian(dims[0], dims[1])
		perm := NDOrder(a)
		inv := InversePermutation(perm)
		for i := range perm {
			if perm[inv[i]] != i || inv[perm[i]] != i {
				t.Fatalf("%dx%d: perm∘invperm is not the identity at %d", dims[0], dims[1], i)
			}
		}
	}
}

func TestNDOrderDeterministic(t *testing.T) {
	a := gridLaplacian(40, 37)
	p1, p2 := NDOrder(a), NDOrder(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("ordering differs at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}

// TestNDOrderFillVsAMD cross-checks nested dissection against AMD on a grid
// large enough for the asymptotic fill advantage to show: the ND factor must
// not fill more than AMD's, and both orderings must solve the same system to
// the same answer. The fill compared is the supernodal factor's stored
// entries, amalgamation zeros included; on that measure ND pulls ahead of
// AMD only from about 250×250 (at 150×150 the two are within 0.1 %).
func TestNDOrderFillVsAMD(t *testing.T) {
	a := gridLaplacian(250, 250)
	n, _ := a.Dims()
	nd, err := NewSupernodalCholeskyOrdered(a, NDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	amd, err := NewSupernodalCholeskyOrdered(a, AMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fill on 250x250 grid: ND %d, AMD %d", nd.NNZ(), amd.NNZ())
	if nd.NNZ() > amd.NNZ() {
		t.Fatalf("ND fill %d above AMD fill %d", nd.NNZ(), amd.NNZ())
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	xn := make([]float64, n)
	xa := make([]float64, n)
	if err := nd.SolveInto(xn, b); err != nil {
		t.Fatal(err)
	}
	if err := amd.SolveInto(xa, b); err != nil {
		t.Fatal(err)
	}
	for i := range xn {
		if d := xn[i] - xa[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("ND and AMD solutions differ at %d: %g vs %g", i, xn[i], xa[i])
		}
	}
}

// TestNDOrderDisconnected exercises the component split: a block-diagonal
// matrix of two meshes must still yield a complete, valid ordering.
func TestNDOrderDisconnected(t *testing.T) {
	a := gridLaplacian(30, 30)
	n, _ := a.Dims()
	// Duplicate the mesh into a 2n block-diagonal system.
	two := blockDiag(a, a)
	perm := NDOrder(two)
	inv := InversePermutation(perm)
	for i := range perm {
		if perm[inv[i]] != i {
			t.Fatalf("perm is not a permutation at %d", i)
		}
	}
	if _, err := NewSupernodalCholeskyOrdered(two, perm); err != nil {
		t.Fatalf("factor under ND ordering: %v", err)
	}
	_ = n
}

// TestAutoOrderSwitch pins the AMD/ND selection threshold.
func TestAutoOrderSwitch(t *testing.T) {
	small := gridLaplacian(20, 20) // 400 < NDMinNodes
	pa := AutoOrder(small)
	pb := AMDOrder(small)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("AutoOrder below threshold is not AMD at %d", i)
		}
	}
	large := gridLaplacian(64, 64) // 4096 = NDMinNodes
	pa = AutoOrder(large)
	pb = NDOrder(large)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("AutoOrder at threshold is not ND at %d", i)
		}
	}
}
