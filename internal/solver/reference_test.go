package solver

import (
	"math"
	"math/rand"
	"testing"

	"emvia/internal/sparse"
)

// Reference kernels: the IC(0) factor with []int column indices and a
// merge-intersect inner loop, its substitution sweeps, and the []int CSR row
// product with its even/odd partial sums. They are the formulations the
// int32 storage and the marker-scatter factor replaced; the tests below hold
// the production kernels to them bit for bit.

type refIC0 struct {
	n              int
	ptr, cols      []int
	vals           []float64
	diag           []int
	uptr, ucols    []int
	uvals, invDiag []float64
}

func newRefIC0(a *sparse.CSR) (*refIC0, error) {
	n, _ := a.Dims()
	ic := &refIC0{n: n, ptr: make([]int, n+1), diag: make([]int, n)}
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if int(c) <= i {
				ic.cols = append(ic.cols, int(c))
				ic.vals = append(ic.vals, vals[k])
			}
		}
		ic.ptr[i+1] = len(ic.cols)
		ic.diag[i] = len(ic.cols) - 1
	}
	uperm := make([]int, len(ic.vals))
	ic.uptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := ic.ptr[i]; k < ic.diag[i]; k++ {
			ic.uptr[ic.cols[k]+1]++
		}
	}
	for i := 0; i < n; i++ {
		ic.uptr[i+1] += ic.uptr[i]
	}
	ic.ucols = make([]int, ic.uptr[n])
	next := append([]int(nil), ic.uptr[:n]...)
	for i := 0; i < n; i++ {
		for k := ic.ptr[i]; k < ic.diag[i]; k++ {
			j := ic.cols[k]
			ic.ucols[next[j]] = i
			uperm[k] = next[j]
			next[j]++
		}
		uperm[ic.diag[i]] = -1
	}
	if err := ic.factor(); err != nil {
		return nil, err
	}
	ic.uvals = make([]float64, ic.uptr[n])
	for k, p := range uperm {
		if p >= 0 {
			ic.uvals[p] = ic.vals[k]
		}
	}
	ic.invDiag = make([]float64, n)
	for i := range ic.invDiag {
		ic.invDiag[i] = 1 / ic.vals[ic.diag[i]]
	}
	return ic, nil
}

func (ic *refIC0) factor() error {
	ptr, colsAll, valsAll, diag := ic.ptr, ic.cols, ic.vals, ic.diag
	for i := 0; i < ic.n; i++ {
		rowCols := colsAll[ptr[i] : ptr[i+1]-1]
		rowVals := valsAll[ptr[i] : ptr[i+1]-1]
		for a1 := 0; a1 < len(rowCols); a1++ {
			j := rowCols[a1]
			sum := rowVals[a1]
			jCols := colsAll[ptr[j] : ptr[j+1]-1]
			jVals := valsAll[ptr[j] : ptr[j+1]-1]
			bi, bj := 0, 0
			for bi < a1 && bj < len(jCols) {
				switch {
				case rowCols[bi] < jCols[bj]:
					bi++
				case rowCols[bi] > jCols[bj]:
					bj++
				default:
					sum -= rowVals[bi] * jVals[bj]
					bi++
					bj++
				}
			}
			rowVals[a1] = sum / valsAll[diag[j]]
		}
		d := valsAll[diag[i]]
		for _, v := range rowVals {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		valsAll[diag[i]] = math.Sqrt(d)
	}
	return nil
}

func (ic *refIC0) Apply(z, r []float64) {
	for i := 0; i < ic.n; i++ {
		s0, s1 := r[i], 0.0
		k := ic.ptr[i]
		for ; k+1 < ic.diag[i]; k += 2 {
			s0 -= ic.vals[k] * z[ic.cols[k]]
			s1 -= ic.vals[k+1] * z[ic.cols[k+1]]
		}
		if k < ic.diag[i] {
			s0 -= ic.vals[k] * z[ic.cols[k]]
		}
		z[i] = (s0 + s1) * ic.invDiag[i]
	}
	for i := ic.n - 1; i >= 0; i-- {
		s0, s1 := z[i], 0.0
		k := ic.uptr[i]
		for ; k+1 < ic.uptr[i+1]; k += 2 {
			s0 -= ic.uvals[k] * z[ic.ucols[k]]
			s1 -= ic.uvals[k+1] * z[ic.ucols[k+1]]
		}
		if k < ic.uptr[i+1] {
			s0 -= ic.uvals[k] * z[ic.ucols[k]]
		}
		z[i] = (s0 + s1) * ic.invDiag[i]
	}
}

// refMulVec is y = A·x with the row product over []int column indices.
func refMulVec(a *sparse.CSR, x []float64) []float64 {
	n, _ := a.Dims()
	y := make([]float64, n)
	for i := range y {
		c32, vals := a.Row(i)
		cols := make([]int, len(c32))
		for k, c := range c32 {
			cols[k] = int(c)
		}
		s0, s1 := 0.0, 0.0
		k := 0
		for ; k+1 < len(cols); k += 2 {
			s0 += vals[k] * x[cols[k]]
			s1 += vals[k+1] * x[cols[k+1]]
		}
		if k < len(cols) {
			s0 += vals[k] * x[cols[k]]
		}
		y[i] = s0 + s1
	}
	return y
}

// firstDiff returns the first index where equal-length a and b differ in
// bits, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// CheckReferenceKernels fails t unless NewIC0's factor, Apply and the CSR
// product A·x agree bit for bit with the reference kernels on a, for a few
// random vectors. a must admit an IC(0) factor.
func CheckReferenceKernels(t *testing.T, a *sparse.CSR, seed int64) {
	t.Helper()
	ref, err := newRefIC0(a)
	if err != nil {
		t.Fatalf("reference IC0: %v", err)
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	if len(ic.cols) != len(ref.cols) || len(ic.uvals) != len(ref.uvals) {
		t.Fatalf("factor has %d+%d entries, reference %d+%d", len(ic.cols), len(ic.uvals), len(ref.cols), len(ref.uvals))
	}
	for k, c := range ic.cols {
		if int(c) != ref.cols[k] {
			t.Fatalf("L column %d: %d, reference %d", k, c, ref.cols[k])
		}
	}
	if k := firstDiff(ic.vals, ref.vals); k >= 0 {
		t.Fatalf("L slot %d: %v, reference %v", k, ic.vals[k], ref.vals[k])
	}
	if k := firstDiff(ic.uvals, ref.uvals); k >= 0 {
		t.Fatalf("Lᵀ slot %d: %v, reference %v", k, ic.uvals[k], ref.uvals[k])
	}
	n, _ := a.Dims()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 3; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if i := firstDiff(a.MulVec(x), refMulVec(a, x)); i >= 0 {
			t.Fatalf("A·x row %d differs from the reference row product", i)
		}
		z, zRef := make([]float64, n), make([]float64, n)
		ic.Apply(z, x)
		ref.Apply(zRef, x)
		if i := firstDiff(z, zRef); i >= 0 {
			t.Fatalf("IC0.Apply entry %d: %v, reference %v", i, z[i], zRef[i])
		}
	}
}

// randomSparseSPD builds an n×n symmetric, strictly diagonally dominant
// matrix whose rows hold a random number of off-diagonal entries, so row
// lengths of both parities occur in both triangles.
func randomSparseSPD(rng *rand.Rand, n int) *sparse.CSR {
	tr := sparse.NewTriplet(n, n, 0)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for e := rng.Intn(9); e > 0; e-- {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			tr.Add(i, j, v)
			tr.Add(j, i, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i, s := range rowAbs {
		tr.Add(i, i, s+0.5+rng.Float64())
	}
	return tr.ToCSR()
}

func TestKernelsMatchReferenceRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		a := randomSparseSPD(rng, 1+rng.Intn(200))
		CheckReferenceKernels(t, a, int64(trial))
	}
	// Dense SPD rows: every row length from 1 to 17.
	for n := 1; n <= 17; n++ {
		a, _ := randomSPD(rng, n)
		CheckReferenceKernels(t, a, int64(n))
	}
}

func TestKernelsMatchReferenceLaplacian(t *testing.T) {
	CheckReferenceKernels(t, gridLaplacian(37, 23), 1)
}

func TestKernelsMatchReferenceLattice(t *testing.T) {
	CheckReferenceKernels(t, lattice27(6), 2)
}
