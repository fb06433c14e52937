package pdn

import (
	"testing"
	"time"
)

// BenchmarkCascadeCrossover measures the costs the cascade rank cap trades
// on the ir-cascade benchmark's grid (PG1 at nx64, calibrated to 6.5 % IR
// drop): a cascade step's O(n·r) update at rank 32; a rebase with 32 arrays
// open — refactoring a private copy of the factor and solving it; and the
// response solve against the rebase that every later opening of the trial
// pays, since a rebase's responses are not shared. It reports the rank at
// which one step costs as much as a rebase, in units of nnz(L)/n.
func BenchmarkCascadeCrossover(b *testing.B) {
	spec := PG1Spec()
	spec.NX, spec.NY = 64, 64
	g, err := Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.CalibrateLoad(0.065); err != nil {
		b.Fatal(err)
	}
	busiest, _, err := g.MaxViaCurrent()
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSystem(TTFConfig{Grid: g, Models: testModels(busiest), Criterion: IRDrop, IRDropFrac: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	n, nnz := len(s.y0), s.circuit.FactorNNZ()
	const rank = 32
	zs := make([][]float64, rank)
	y := make([]float64, rank)
	for j := range zs {
		zs[j] = make([]float64, n)
		for i := range zs[j] {
			zs[j][i] = float64((i*7+j)%13) * 1e-3
		}
		y[j] = 1 / float64(j+1)
		s.failed = append(s.failed, (2*j+1)*len(g.Vias)/(2*rank)) // spread over the grid
	}
	x, z := make([]float64, n), make([]float64, n)
	// Each iteration times one of each, interleaved, so that the ratio
	// holds up on a host whose speed drifts.
	var step, rebase, solve time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		advance(x, x, 1, zs[0], y, zs)
		t1 := time.Now()
		if _, err := s.rebase(); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if err := s.solveResponse(s.casc.rb, z, len(g.Vias)/3); err != nil {
			b.Fatal(err)
		}
		step += t1.Sub(t0)
		rebase += t2.Sub(t1)
		solve += time.Since(t2)
	}
	b.ReportMetric(float64(step.Nanoseconds())/float64(b.N), "step_ns")
	b.ReportMetric(float64(rebase.Nanoseconds())/float64(b.N), "rebase_ns")
	b.ReportMetric(float64(solve.Nanoseconds())/float64(b.N), "solve_ns")
	b.ReportMetric(float64(rebase)/(float64(step)/rank)/(float64(nnz)/float64(n)), "crossover_nnzL/n")
}
