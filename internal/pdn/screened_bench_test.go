package pdn

import (
	"testing"

	"emvia/internal/mc"
)

// BenchmarkScreenedTrials times the Monte-Carlo layer of the wl-screened
// benchmark on its grid (PG1 at nx100, calibrated to 1 % IR drop): 4000
// screened weakest-link trials on two workers over a prebuilt master and its
// steady screen, so grid generation, factorization and the screen stay out
// of the timing. Each trial ends at its first failure and takes one draw
// from its trial generator, so the layer is per-trial reseeding, sampling
// and the engine's scan. It reports trials per second.
func BenchmarkScreenedTrials(b *testing.B) {
	spec := PG1Spec()
	spec.NX, spec.NY = 100, 100
	g, err := Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.CalibrateLoad(0.01); err != nil {
		b.Fatal(err)
	}
	busiest, _, err := g.MaxViaCurrent()
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewSystem(TTFConfig{Grid: g, Models: testModels(busiest), Criterion: WeakestLink})
	if err != nil {
		b.Fatal(err)
	}
	screen, err := master.SteadyScreen(ScreenConfig{})
	if err != nil {
		b.Fatal(err)
	}
	opt := mc.Options{Trials: 4000, Seed: 1, Workers: 2, Engine: mc.EngineBoth, Candidates: screen.CandidateMask()}
	newSys := func() (mc.System, error) { return master.Clone(), nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		if _, err := mc.RunParallel(newSys, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*opt.Trials)/b.Elapsed().Seconds(), "trials/s")
}
