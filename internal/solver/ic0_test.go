package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// lattice27 builds the stiffness-like matrix of an m×m×m node lattice with
// 3 dofs per node, each node coupled to its 27-point neighbourhood: the
// pattern of the FEA systems, with up to 81 entries per row. Off-diagonal
// values depend only on the unordered dof pair, and the diagonal dominates
// its row, so the matrix is SPD and admits an IC(0) factor.
func lattice27(m int) *sparse.CSR {
	n := 3 * m * m * m
	tr := sparse.NewTriplet(n, n, 81*n)
	rowAbs := make([]float64, n)
	for k := 0; k < m; k++ {
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				a := (k*m+j)*m + i
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							ni, nj, nk := i+di, j+dj, k+dk
							if ni < 0 || nj < 0 || nk < 0 || ni >= m || nj >= m || nk >= m {
								continue
							}
							b := (nk*m+nj)*m + ni
							for c := 0; c < 3; c++ {
								for d := 0; d < 3; d++ {
									r, col := 3*a+c, 3*b+d
									if r == col {
										continue
									}
									v := -1 / float64(1+(r+col)%7+(r-col)*(r-col)%5)
									tr.Add(r, col, v)
									rowAbs[r] -= v
								}
							}
						}
					}
				}
			}
		}
	}
	for r, s := range rowAbs {
		tr.Add(r, r, s+1)
	}
	return tr.ToCSR()
}

// BenchmarkIC0 times the IC(0) numeric factorization and one preconditioner
// application (a forward and a backward sweep) on a 16³-node, 3-dof
// 27-point lattice: 12 288 equations, about 0.9 M nonzeros, the size class
// of a full-mesh 4×4 via-array FEA. factor restores A's lower triangle
// before each factorization; the copy is part of the timing.
func BenchmarkIC0(b *testing.B) {
	a := lattice27(16)
	n, _ := a.Dims()
	ic, err := NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	var low []float64
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if int(c) <= i {
				low = append(low, vals[k])
			}
		}
	}
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(ic.vals, low)
			if err := ic.factor(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ic.Apply(z, r)
		}
	})
}

// TestAutoPreconditionerCountsFallbacks forces IC(0) to break down: a
// positive diagonal with a dominant coupling gives Jacobi, a negative
// diagonal rejects Jacobi too and leaves the identity. Each fallback is
// counted under its target; a matrix that factors counts nothing.
func TestAutoPreconditionerCountsFallbacks(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	matrix := func(d, off float64) *sparse.CSR {
		tr := sparse.NewTriplet(2, 2, 4)
		tr.Add(0, 0, d)
		tr.Add(1, 1, d)
		tr.Add(0, 1, off)
		tr.Add(1, 0, off)
		return tr.ToCSR()
	}
	if _, err := NewIC0(matrix(1, 2)); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("IC0 of an indefinite matrix: err = %v, want ErrNotSPD", err)
	}
	for _, c := range []struct {
		a    *sparse.CSR
		want Preconditioner
	}{
		{matrix(4, 1), &IC0{}},
		{matrix(1, 2), &Jacobi{}},
		{matrix(-1, 0), Identity{}},
	} {
		got := NewAutoPreconditioner(c.a)
		if gt, wt := fmt.Sprintf("%T", got), fmt.Sprintf("%T", c.want); gt != wt {
			t.Errorf("NewAutoPreconditioner = %s, want %s", gt, wt)
		}
	}
	for to, want := range map[string]int64{"jacobi": 1, "identity": 1} {
		if got := reg.Counter(telemetry.PrecondFallbacks(to)).Value(); got != want {
			t.Errorf("%s = %d, want %d", telemetry.PrecondFallbacks(to), got, want)
		}
	}
}
