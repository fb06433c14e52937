package solver

import (
	"fmt"
	"math"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// DenseCholesky is a dense LLᵀ factorization of a small SPD matrix, used for
// via-array resistance networks (tens of nodes) and as a reference solver in
// tests.
type DenseCholesky struct {
	n int
	l []float64 // lower-triangular factor, row-major n×n
}

// NewDenseCholesky factors the SPD matrix a, given in row-major order with
// dimension n. It returns ErrNotSPD when a pivot is non-positive.
func NewDenseCholesky(a []float64, n int) (*DenseCholesky, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("solver: dense matrix has %d entries, want %d", len(a), n*n)
	}
	l := make([]float64, n*n)
	copy(l, a)
	if err := factorLowerInPlace(l, n); err != nil {
		return nil, err
	}
	return &DenseCholesky{n: n, l: l}, nil
}

// factorLowerInPlace overwrites the lower triangle of the row-major matrix in
// l with its Cholesky factor. Entries above the diagonal are ignored.
func factorLowerInPlace(l []float64, n int) error {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := l[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return fmt.Errorf("%w: pivot %g at row %d", ErrNotSPD, sum, i)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return nil
}

// NewDenseCholeskyFromCSR densifies a small sparse SPD matrix and factors
// it: the exact reference the sparse factorizations are tested against.
func NewDenseCholeskyFromCSR(a *sparse.CSR) (*DenseCholesky, error) {
	n, cdim := a.Dims()
	if n != cdim {
		return nil, fmt.Errorf("solver: dense factor needs a square matrix, got %d×%d", n, cdim)
	}
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, col := range cols {
			if int(col) <= i {
				l[i*n+int(col)] = vals[k]
			}
		}
	}
	record(telemetry.DenseFactorizations)
	if err := factorLowerInPlace(l, n); err != nil {
		return nil, err
	}
	return &DenseCholesky{n: n, l: l}, nil
}

// Solve returns x with A·x = b.
func (c *DenseCholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto overwrites x with A⁻¹·b without allocating. x and b must have
// the system dimension and must not alias.
func (c *DenseCholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n || len(x) != c.n {
		return fmt.Errorf("solver: SolveInto lengths %d/%d do not match dimension %d", len(x), len(b), c.n)
	}
	record(telemetry.DenseSolves)
	n, l := c.n, c.l
	// Forward solve L·y = b into x, then backward solve Lᵀ·x = y in place:
	// the backward sweep at row i only reads entries x[k] with k > i, which
	// are already final.
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return nil
}
