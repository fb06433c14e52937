package sparse

import (
	"math/rand"
	"testing"
)

// grid5pt builds the 5-point Laplacian of an n×n grid, the sparsity class of
// the power-grid conductance systems.
func grid5pt(n int) *CSR {
	tr := NewTriplet(n*n, n*n, 5*n*n)
	idx := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			k := idx(i, j)
			tr.Add(k, k, 4)
			if i+1 < n {
				tr.Add(k, idx(i+1, j), -1)
				tr.Add(idx(i+1, j), k, -1)
			}
			if j+1 < n {
				tr.Add(k, idx(i, j+1), -1)
				tr.Add(idx(i, j+1), k, -1)
			}
		}
	}
	return tr.ToCSR()
}

func BenchmarkSpMV(b *testing.B) {
	m := grid5pt(100) // 10k unknowns
	x := make([]float64, 10000)
	y := make([]float64, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

func BenchmarkTripletToCSR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grid5pt(60)
	}
}
