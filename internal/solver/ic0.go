package solver

import (
	"fmt"
	"math"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// IC0 is a zero-fill incomplete-Cholesky preconditioner: A ≈ L·Lᵀ where L
// keeps exactly the sparsity pattern of the lower triangle of A. For the
// M-matrix-like conductance systems of power grids, IC(0) exists and cuts CG
// iteration counts by a large factor; for FEM elasticity it usually exists
// too, and NewIC0 falls back with ErrNotSPD when a pivot breaks down so the
// caller can degrade to Jacobi.
type IC0 struct {
	n int
	// L stored row-wise with the diagonal last in each row, so the
	// diagonal of row i sits at slot ptr[i+1]-1.
	ptr  []int
	cols []int32
	vals []float64

	// Strict upper triangle Lᵀ stored row-wise so the backward solve is a
	// sequential row gather instead of a scattered column update;
	// syncUpper refreshes uvals after each factorization.
	uptr  []int
	ucols []int32
	uvals []float64
	// invDiag caches 1/L(i,i) so the substitution sweeps multiply instead
	// of divide.
	invDiag []float64
}

// NewIC0 computes the zero-fill incomplete Cholesky factor of SPD matrix a.
func NewIC0(a *sparse.CSR) (*IC0, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("solver: IC0 needs a square matrix, got %d×%d", n, c)
	}
	// Rows are sorted, so each row's lower triangle is a prefix ending in
	// its diagonal. Count the prefixes, then copy them into exactly-sized
	// storage.
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		w := 0
		for w < len(cols) && int(cols[w]) <= i {
			w++
		}
		if w == 0 || int(cols[w-1]) != i {
			return nil, fmt.Errorf("%w: row %d has no diagonal entry", ErrNotSPD, i)
		}
		ptr[i+1] = ptr[i] + w
	}
	ic := &IC0{n: n, ptr: ptr, cols: make([]int32, ptr[n]), vals: make([]float64, ptr[n])}
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		w := ptr[i+1] - ptr[i]
		copy(ic.cols[ptr[i]:], cols[:w])
		copy(ic.vals[ptr[i]:], vals[:w])
	}
	ic.buildUpper()
	if err := ic.factor(); err != nil {
		return nil, err
	}
	ic.syncUpper()
	return ic, nil
}

// buildUpper lays out the column pattern of the strict upper triangle (Lᵀ
// without its diagonal) row-wise.
func (ic *IC0) buildUpper() {
	n := ic.n
	uptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range ic.cols[ic.ptr[i] : ic.ptr[i+1]-1] {
			uptr[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		uptr[i+1] += uptr[i]
	}
	ucols := make([]int32, uptr[n])
	next := make([]int, n)
	copy(next, uptr[:n])
	for i := 0; i < n; i++ {
		for _, j := range ic.cols[ic.ptr[i] : ic.ptr[i+1]-1] {
			ucols[next[j]] = int32(i)
			next[j]++
		}
	}
	ic.uptr = uptr
	ic.ucols = ucols
	ic.uvals = make([]float64, uptr[n])
	ic.invDiag = make([]float64, n)
}

// syncUpper copies the factored strict-lower values into the row-wise upper
// storage, in the order buildUpper laid it out, and computes the reciprocal
// diagonal.
func (ic *IC0) syncUpper() {
	next := make([]int, ic.n)
	copy(next, ic.uptr[:ic.n])
	for i := 0; i < ic.n; i++ {
		lo, dg := ic.ptr[i], ic.ptr[i+1]-1
		for k, j := range ic.cols[lo:dg] {
			ic.uvals[next[j]] = ic.vals[lo+k]
			next[j]++
		}
		ic.invDiag[i] = 1 / ic.vals[dg]
	}
}

// factor runs the numeric IC(0) factorization in place over vals, which must
// hold the lower triangle of A in pattern order.
//
// It is the up-looking variant: row i is finished using the rows j < i it
// references, L(i,j) = (A(i,j) − Σ_{k<j} L(i,k)·L(j,k)) / L(j,j). The sum
// runs over the columns k shared by rows i and j. A marker array records the
// slot of each of row i's columns, so the shared columns are found by one
// walk over row j's strict lower part. Row j's columns all lie below j, so
// every match is an already-finished entry of row i, and the products are
// subtracted in ascending k exactly as a merge of the two sorted rows would:
// the factor is bit-identical to the merge-intersect formulation.
func (ic *IC0) factor() error {
	ptr, cols, vals := ic.ptr, ic.cols, ic.vals
	// mark[k] is 1 + the position of column k within row i's strict lower
	// part, or 0 when row i has no entry there.
	mark := make([]int32, ic.n)
	for i := 0; i < ic.n; i++ {
		lo, dg := ptr[i], ptr[i+1]-1
		rowCols := cols[lo:dg] // off-diagonal columns of row i
		rowVals := vals[lo:dg]
		for p, k := range rowCols {
			mark[k] = int32(p) + 1
		}
		for p, j := range rowCols {
			sum := rowVals[p]
			jlo, jdg := ptr[j], ptr[j+1]-1
			jCols := cols[jlo:jdg]
			jVals := vals[jlo:jdg]
			jVals = jVals[:len(jCols)]
			for q, k := range jCols {
				if m := mark[k]; m != 0 {
					sum -= rowVals[m-1] * jVals[q]
				}
			}
			rowVals[p] = sum / vals[jdg]
		}
		// Diagonal: L(i,i) = sqrt(A(i,i) − Σ_k L(i,k)²).
		d := vals[dg]
		for _, v := range rowVals {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: IC0 pivot %g at row %d", ErrNotSPD, d, i)
		}
		vals[dg] = math.Sqrt(d)
		for _, k := range rowCols {
			mark[k] = 0
		}
	}
	return nil
}

// Apply overwrites z with (L·Lᵀ)⁻¹·r by forward and backward substitution.
// Both sweeps are row gathers over contiguous storage (the backward one over
// the transposed copy maintained by syncUpper).
func (ic *IC0) Apply(z, r []float64) {
	// Forward solve L·y = r.
	for i := 0; i < ic.n; i++ {
		lo, dg := ic.ptr[i], ic.ptr[i+1]-1
		z[i] = subRow(r[i], ic.cols[lo:dg], ic.vals[lo:dg], z) * ic.invDiag[i]
	}
	// Backward solve Lᵀ·z = y: row i of the strict upper triangle holds
	// L(j,i) for j > i.
	for i := ic.n - 1; i >= 0; i-- {
		lo, hi := ic.uptr[i], ic.uptr[i+1]
		z[i] = subRow(z[i], ic.ucols[lo:hi], ic.uvals[lo:hi], z) * ic.invDiag[i]
	}
}

// subRow returns s − Σ vals[k]·z[cols[k]] accumulated in two interleaved
// partial sums (even and odd k), combined at the end.
func subRow(s float64, cols []int32, vals, z []float64) float64 {
	vals = vals[:len(cols)]
	s0, s1 := s, 0.0
	k := 0
	for ; k+1 < len(cols); k += 2 {
		s0 -= vals[k] * z[cols[k]]
		s1 -= vals[k+1] * z[cols[k+1]]
	}
	if k < len(cols) {
		s0 -= vals[k] * z[cols[k]]
	}
	return s0 + s1
}

// NewAutoPreconditioner builds the strongest preconditioner that succeeds on
// a: IC(0) if its factorization exists, otherwise Jacobi, otherwise identity.
// Each fallback is counted under telemetry.PrecondFallbacks, since a solve
// that lost IC(0) takes many times the iterations.
func NewAutoPreconditioner(a *sparse.CSR) Preconditioner {
	if ic, err := NewIC0(a); err == nil {
		return ic
	}
	if j, err := NewJacobi(a); err == nil {
		record(telemetry.PrecondFallbacks("jacobi"))
		return j
	}
	record(telemetry.PrecondFallbacks("identity"))
	return Identity{}
}
