// Package solver provides iterative and direct solvers for the symmetric
// positive-definite (SPD) linear systems produced by finite-element stiffness
// assembly and power-grid nodal analysis.
//
// Power grids are solved directly: SupernodalCholesky factors the
// AMD-ordered nodal system once, and each via-array failure is a low-rank
// update of the pristine solution against that factor. The finite-element and
// thermal systems use the preconditioned conjugate-gradient method with a
// choice of identity, Jacobi (diagonal) or zero-fill incomplete-Cholesky
// preconditioners. A dense Cholesky factorization serves the small
// via-array networks and is the reference the sparse factor is tested
// against.
package solver

import (
	"errors"
	"fmt"
	"math"

	"emvia/internal/par"
	"emvia/internal/sparse"
)

// ErrNotConverged is wrapped by CG when the iteration limit is reached before
// the residual tolerance is met.
var ErrNotConverged = errors.New("solver: iteration limit reached before convergence")

// ErrNotSPD is returned by factorizations when a non-positive pivot shows the
// matrix is not positive definite.
var ErrNotSPD = errors.New("solver: matrix is not positive definite")

// Preconditioner applies z = M⁻¹·r for a symmetric positive-definite
// approximation M of the system matrix.
type Preconditioner interface {
	// Apply overwrites z with M⁻¹·r. z and r have the system dimension and
	// must not alias.
	Apply(z, r []float64)
}

// Identity is the trivial preconditioner M = I.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is the diagonal preconditioner M = diag(A).
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of A. A
// diagonal entry that is not finite and positive is rejected, since the
// target systems are SPD.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("%w: diagonal entry of row %d is %g", ErrNotSPD, i, v)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{invDiag: inv}, nil
}

// Apply overwrites z with diag(A)⁻¹·r.
func (j *Jacobi) Apply(z, r []float64) {
	for i, ri := range r {
		z[i] = ri * j.invDiag[i]
	}
}

// Options configures the conjugate-gradient iteration.
type Options struct {
	// Tol is the relative residual tolerance ‖b−Ax‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter bounds the number of iterations. Zero selects 10·n.
	MaxIter int
	// M is the preconditioner; nil selects Identity.
	M Preconditioner
	// Pool parallelizes the SpMV and vector kernels across its workers.
	// Reductions use fixed-size blocks with partial sums combined in block
	// order, so the iterates, iteration count and residuals are
	// bit-identical for any worker count; nil (or a 1-wide pool) runs the
	// same blocked kernels inline. Preconditioner application is serial
	// either way.
	Pool *par.Pool
}

// Stats reports how a CG solve went.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
}

// CG solves A·x = b for SPD A by preconditioned conjugate gradients and
// returns the solution with iteration statistics. On ErrNotConverged the
// best iterate found is still returned.
func CG(a *sparse.CSR, b []float64, opt Options) ([]float64, Stats, error) {
	n, c := a.Dims()
	if n != c {
		return nil, Stats{}, fmt.Errorf("solver: CG needs a square matrix, got %d×%d", n, c)
	}
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: CG rhs length %d does not match dimension %d", len(b), n)
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 10 * n
		if maxIter < 100 {
			maxIter = 100
		}
	}
	var m Preconditioner = Identity{}
	if opt.M != nil {
		m = opt.M
	}

	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	partials := make([]float64, partialsLen(n))
	kc := &kernCtx{}
	kc.bind(opt.Pool)
	copy(r, b)

	bnorm := math.Sqrt(kc.dot(b, b, partials))
	if bnorm == 0 {
		// b = 0 ⇒ x = 0 exactly.
		recordCG(Stats{})
		return x, Stats{Iterations: 0, Residual: 0}, nil
	}

	m.Apply(z, r)
	copy(p, z)
	rz := kc.dot(r, z, partials)

	res := math.Sqrt(kc.dot(r, r, partials)) / bnorm
	var it int
	for it = 0; it < maxIter && res > tol; it++ {
		kc.mul(a, ap, p)
		pap := kc.dot(p, ap, partials)
		if pap <= 0 || math.IsNaN(pap) {
			return x, Stats{Iterations: it, Residual: res},
				fmt.Errorf("%w: pᵀAp = %g at iteration %d", ErrNotSPD, pap, it)
		}
		alpha := rz / pap
		kc.update(x, r, p, ap, alpha)
		res = math.Sqrt(kc.dot(r, r, partials)) / bnorm
		if res <= tol {
			it++
			break
		}
		m.Apply(z, r)
		rzNew := kc.dot(r, z, partials)
		beta := rzNew / rz
		rz = rzNew
		kc.direction(p, z, beta)
	}
	st := Stats{Iterations: it, Residual: res}
	recordCG(st)
	if res > tol {
		return x, st, fmt.Errorf("%w: residual %.3e after %d iterations (tol %.3e)",
			ErrNotConverged, res, it, tol)
	}
	return x, st, nil
}
