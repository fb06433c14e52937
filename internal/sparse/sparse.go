// Package sparse provides the compressed sparse row (CSR) matrix type and a
// coordinate-format builder used by the finite-element and circuit solvers.
//
// Go has no mature sparse linear-algebra ecosystem, so this package
// implements the small set of operations the repository needs: duplicate-
// summing triplet assembly, matrix–vector products, slot lookup and diagonal
// extraction. Matrices are real and row-major; the symmetric
// positive-definite systems produced by FEM stiffness assembly and power-grid
// nodal analysis store both triangles explicitly. Column indices are stored
// as int32, which halves the index traffic of the memory-bound row products,
// so every dimension must fit in an int32.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// checkDims panics when a dimension is negative or beyond the int32 range of
// the stored indices.
func checkDims(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %d×%d", r, c))
	}
	if r > math.MaxInt32 || c > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: dimensions %d×%d exceed the int32 index range (max %d)", r, c, math.MaxInt32))
	}
}

// Triplet accumulates matrix entries in coordinate (COO) form. Duplicate
// entries at the same (row, col) are summed when converting to CSR, which is
// exactly the semantics of finite-element and nodal-analysis "stamping".
type Triplet struct {
	nrows, ncols int
	rows, cols   []int32
	vals         []float64
}

// NewTriplet returns an empty r×c triplet accumulator with capacity for nnz
// entries (nnz may be 0 if unknown).
func NewTriplet(r, c, nnz int) *Triplet {
	checkDims(r, c)
	return &Triplet{
		nrows: r,
		ncols: c,
		rows:  make([]int32, 0, nnz),
		cols:  make([]int32, 0, nnz),
		vals:  make([]float64, 0, nnz),
	}
}

// Dims returns the matrix dimensions.
func (t *Triplet) Dims() (r, c int) { return t.nrows, t.ncols }

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (t *Triplet) NNZ() int { return len(t.vals) }

// Add accumulates v at position (i, j). Adding zero is a no-op so callers can
// stamp without branching.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, t.nrows, t.ncols))
	}
	if v == 0 {
		return
	}
	t.rows = append(t.rows, int32(i))
	t.cols = append(t.cols, int32(j))
	t.vals = append(t.vals, v)
}

// ToCSR compresses the triplets into CSR form, summing duplicates. The
// triplet accumulator remains valid and may keep accumulating afterwards.
func (t *Triplet) ToCSR() *CSR {
	checkDims(t.nrows, t.ncols)
	// Count entries per row, then bucket-sort into row order.
	counts := make([]int, t.nrows+1)
	for _, r := range t.rows {
		counts[r+1]++
	}
	for i := 0; i < t.nrows; i++ {
		counts[i+1] += counts[i]
	}
	ptr := make([]int, t.nrows+1)
	copy(ptr, counts)
	cols := make([]int32, len(t.vals))
	vals := make([]float64, len(t.vals))
	next := make([]int, t.nrows)
	for i := range next {
		next[i] = ptr[i]
	}
	for k, r := range t.rows {
		p := next[r]
		cols[p] = t.cols[k]
		vals[p] = t.vals[k]
		next[r]++
	}
	// Sort each row by column and merge duplicates in place.
	outPtr := make([]int, t.nrows+1)
	w := 0
	for i := 0; i < t.nrows; i++ {
		lo, hi := ptr[i], ptr[i+1]
		sortRow(cols[lo:hi], vals[lo:hi])
		outPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > outPtr[i] && cols[w-1] == cols[k] {
				vals[w-1] += vals[k]
				continue
			}
			cols[w] = cols[k]
			vals[w] = vals[k]
			w++
		}
	}
	outPtr[t.nrows] = w
	return &CSR{
		nrows: t.nrows,
		ncols: t.ncols,
		ptr:   outPtr,
		cols:  cols[:w:w],
		vals:  vals[:w:w],
	}
}

// sortRow sorts one row's (column, value) pairs by column with an in-place
// insertion sort. Stamped rows are short (a handful of entries for nodal
// analysis, tens for FEM), where insertion sort beats the generic sort and —
// unlike sort.Sort with an interface receiver — allocates nothing, which
// matters because ToCSR runs once per matrix row.
func sortRow(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}

// CSR is a compressed sparse row matrix with column indices sorted within
// each row and no duplicate entries.
type CSR struct {
	nrows, ncols int
	ptr          []int
	cols         []int32
	vals         []float64
}

// NewCSR builds a CSR matrix directly from raw components. The slices are
// used without copying; callers must not mutate them afterwards. It validates
// structural invariants and panics on malformed input, since raw construction
// is only used by trusted in-package code paths and tests.
func NewCSR(r, c int, ptr []int, cols []int32, vals []float64) *CSR {
	checkDims(r, c)
	if len(ptr) != r+1 || ptr[0] != 0 || ptr[r] != len(cols) || len(cols) != len(vals) {
		panic("sparse: inconsistent CSR components")
	}
	for i := 0; i < r; i++ {
		if ptr[i] > ptr[i+1] {
			panic("sparse: non-monotone row pointer")
		}
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if cols[k] < 0 || int(cols[k]) >= c {
				panic("sparse: column index out of range")
			}
			if k > ptr[i] && cols[k] <= cols[k-1] {
				panic("sparse: unsorted or duplicate column indices")
			}
		}
	}
	return &CSR{nrows: r, ncols: c, ptr: ptr, cols: cols, vals: vals}
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (r, c int) { return m.nrows, m.ncols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Row returns views of the column indices and values of row i. The returned
// slices alias internal storage and must not be mutated structurally.
func (m *CSR) Row(i int) (cols []int32, vals []float64) {
	return m.cols[m.ptr[i]:m.ptr[i+1]], m.vals[m.ptr[i]:m.ptr[i+1]]
}

// Pattern returns views of the row pointers and column indices, which
// together are the sparsity pattern. The slices alias internal storage and
// must not be modified.
func (m *CSR) Pattern() (ptr []int, cols []int32) { return m.ptr, m.cols }

// SlotIndex returns the storage slot of entry (i, j), or -1 when the entry is
// not part of the sparsity pattern. Slots are stable for the lifetime of the
// matrix and shared by every matrix of the same pattern, so a symbolic
// analysis can record slots once and read the values of any such matrix
// with ValueAt.
func (m *CSR) SlotIndex(i, j int) int {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, m.nrows, m.ncols))
	}
	lo, hi := m.ptr[i], m.ptr[i+1]
	if k, ok := slices.BinarySearch(m.cols[lo:hi], int32(j)); ok {
		return lo + k
	}
	return -1
}

// ValueAt returns the value stored in slot (from SlotIndex).
func (m *CSR) ValueAt(slot int) float64 { return m.vals[slot] }

// MulVecTo computes y = A·x, overwriting y. len(x) must equal the column
// count and len(y) the row count.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.ncols || len(y) != m.nrows {
		panic(fmt.Sprintf("sparse: MulVecTo dimension mismatch: A is %d×%d, len(x)=%d, len(y)=%d",
			m.nrows, m.ncols, len(x), len(y)))
	}
	for i := 0; i < m.nrows; i++ {
		y[i] = m.rowDot(x, m.ptr[i], m.ptr[i+1])
	}
}

// rowDot accumulates one CSR row against x with two interleaved partial sums
// (breaking the serial dependency chain) combined as even+odd at the end.
// Every row-product in the package funnels through it, so MulVecTo and the
// partitioned MulVecRange produce bit-identical results. The row is resliced
// once, so the loop reads two local slices rather than reloading the
// matrix's fields for every entry.
func (m *CSR) rowDot(x []float64, lo, hi int) float64 {
	cols := m.cols[lo:hi]
	vals := m.vals[lo:hi]
	vals = vals[:len(cols)]
	s0, s1 := 0.0, 0.0
	k := 0
	for ; k+1 < len(cols); k += 2 {
		s0 += vals[k] * x[cols[k]]
		s1 += vals[k+1] * x[cols[k+1]]
	}
	if k < len(cols) {
		s0 += vals[k] * x[cols[k]]
	}
	return s0 + s1
}

// MulVecRange computes y[lo:hi] = (A·x)[lo:hi] for a row range, leaving the
// rest of y untouched. Row results are independent, so callers may partition
// the rows across workers in any way and still obtain a result bit-identical
// to MulVecTo. Bounds are the caller's responsibility beyond the row range
// check; dimension validation is done once by the driver, not per block.
func (m *CSR) MulVecRange(y, x []float64, lo, hi int) {
	if lo < 0 || hi > m.nrows || lo > hi {
		panic(fmt.Sprintf("sparse: MulVecRange rows [%d,%d) out of range %d", lo, hi, m.nrows))
	}
	for i := lo; i < hi; i++ {
		y[i] = m.rowDot(x, m.ptr[i], m.ptr[i+1])
	}
}

// Diagonal returns a fresh slice with the main diagonal (zero where absent).
func (m *CSR) Diagonal() []float64 {
	n := m.nrows
	if m.ncols < n {
		n = m.ncols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if int(m.cols[k]) == i {
				d[i] = m.vals[k]
				break
			}
		}
	}
	return d
}
