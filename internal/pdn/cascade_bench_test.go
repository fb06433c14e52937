package pdn

import (
	"testing"
	"time"
)

// BenchmarkCascadeCrossover measures the two per-failure costs the cascade
// rank cap trades on the ir-cascade benchmark's grid (PG1 at nx64,
// calibrated to 6.5 % IR drop): a cascade step's O(n·r) update at rank 32,
// and the factor path's downdate plus solve. It reports the rank at which
// the two cost the same, in units of nnz(L)/n — the quantity
// cascadeCrossover records.
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
	}
	x := make([]float64, n)
	fb := s.circuit.Clone()
	op := fb.NewOP()
	ri := g.Vias[len(g.Vias)/2+spec.NX/2].ResistorIndex
	ohms := g.Netlist.Resistors[ri].Ohms
	// Each iteration times one of each, interleaved, so that the ratio
	// holds up on a host whose speed drifts.
	var step, factor time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		advance(x, x, 1, zs[0], y, zs)
		t1 := time.Now()
		if err := fb.DisableResistor(ri); err != nil {
			b.Fatal(err)
		}
		if err := fb.SolveDCInto(op); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if err := fb.SetResistor(ri, ohms); err != nil {
			b.Fatal(err)
		}
		step += t1.Sub(t0)
		factor += t2.Sub(t1)
	}
	b.ReportMetric(float64(step.Nanoseconds())/float64(b.N), "step_ns")
	b.ReportMetric(float64(factor.Nanoseconds())/float64(b.N), "factor_ns")
	b.ReportMetric(float64(factor)/(float64(step)/rank)/(float64(nnz)/float64(n)), "crossover_nnzL/n")
}
