// Benchmarks regenerating (scaled-down versions of) every table and figure
// of the paper, plus ablation benchmarks for the design choices called out
// in DESIGN.md §5. Each benchmark exercises the same code path as the
// corresponding cmd/paperfigs experiment; key result metrics are attached
// with b.ReportMetric so shape regressions are visible in benchmark output.
package emvia_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"emvia/internal/baseline"
	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/emdist"
	"emvia/internal/fem"
	"emvia/internal/korhonen"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/solver"
	"emvia/internal/sparse"
	"emvia/internal/stat"
	"emvia/internal/viaarray"
)

// benchAnalyzer returns a coarse-mesh analyzer sized for benchmarking.
func benchAnalyzer() *core.Analyzer {
	a := core.NewAnalyzer()
	a.Base.Margin = 1.0 * phys.Micron
	a.Base.SubstrateThickness = 0.8 * phys.Micron
	a.Base.StepOutside = 0.5 * phys.Micron
	a.Base.StepZBulk = 1.0 * phys.Micron
	return a
}

// benchGrid builds a small tuned grid once per benchmark.
func benchGrid(b *testing.B, nx int) *pdn.Grid {
	b.Helper()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = nx, nx
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Tune(0.065, 0.01); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable1Materials measures the elasticity-matrix path behind
// Table 1's property set (element stiffness integration for each material).
func BenchmarkTable1Materials(b *testing.B) {
	p := cudd.DefaultParams()
	p.ArrayN = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := cudd.Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1StressProfile regenerates Figure 1: FEA stress scans of a
// 1×1 via vs a 4×4 array.
func BenchmarkFig1StressProfile(b *testing.B) {
	a := benchAnalyzer()
	var gap float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 4} {
			p := a.Base
			p.ArrayN = n
			p.Pattern = cudd.Plus
			res, err := cudd.Characterize(p, a.FEA)
			if err != nil {
				b.Fatal(err)
			}
			if n == 4 {
				gap = (res.MaxPeak() - res.MinPeak()) / phys.MPa
			}
		}
	}
	b.ReportMetric(gap, "MPa-spread")
}

// BenchmarkFig6Patterns regenerates Figure 6: the Plus/T/L stress scans.
func BenchmarkFig6Patterns(b *testing.B) {
	a := benchAnalyzer()
	var plusPeak float64
	for i := 0; i < b.N; i++ {
		for _, pat := range cudd.Patterns() {
			p := a.Base
			p.ArrayN = 4
			p.Pattern = pat
			res, err := cudd.Characterize(p, a.FEA)
			if err != nil {
				b.Fatal(err)
			}
			if pat == cudd.Plus {
				plusPeak = res.MaxPeak() / phys.MPa
			}
		}
	}
	b.ReportMetric(plusPeak, "MPa-plus-peak")
}

// BenchmarkFig7ArraySize regenerates Figure 7: 8×8 vs 4×4 stress.
func BenchmarkFig7ArraySize(b *testing.B) {
	a := benchAnalyzer()
	var innerDelta float64
	for i := 0; i < b.N; i++ {
		var inner [2]float64
		for k, n := range []int{4, 8} {
			p := a.Base
			p.ArrayN = n
			p.Pattern = cudd.Plus
			res, err := cudd.Characterize(p, a.FEA)
			if err != nil {
				b.Fatal(err)
			}
			inner[k] = res.PeakSigmaT[n/2][n/2]
		}
		innerDelta = (inner[0] - inner[1]) / phys.MPa
	}
	b.ReportMetric(innerDelta, "MPa-inner-gain")
}

// BenchmarkFEAWorkers measures worker-count scaling of one 4×4-array FEA
// characterization (assembly + CG + stress recovery). The paper metric is
// bit-identical across sub-benchmarks by the deterministic-kernel design, so
// only the wall clock may move.
func BenchmarkFEAWorkers(b *testing.B) {
	a := benchAnalyzer()
	nmax := runtime.GOMAXPROCS(0)
	seen := make(map[int]bool)
	for _, w := range []int{1, 2, 4, nmax} {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			opt := a.FEA
			opt.Workers = w
			var peak float64
			for i := 0; i < b.N; i++ {
				p := a.Base
				p.ArrayN = 4
				p.Pattern = cudd.Plus
				res, err := cudd.Characterize(p, opt)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.MaxPeak() / phys.MPa
			}
			b.ReportMetric(peak, "MPa-peak")
		})
	}
}

// BenchmarkFEASolve times the cold FEA solve of the array-char benchmark
// workload: one full-mesh 4×4 StressFor per op on a fresh analyzer with no
// stress cache, so every op assembles, factors IC(0), runs CG and recovers
// stress for one pattern.
func BenchmarkFEASolve(b *testing.B) {
	for _, pat := range cudd.Patterns() {
		b.Run(pat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer()
				if _, err := a.StressFor(pat, a.Base.LayerPair, 4, a.Base.WireWidth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStressCacheWarm measures StressFor against a warm persistent
// cache: every iteration uses a fresh analyzer (empty memo), so the
// per-via stress matrix comes entirely from disk and no FEA runs.
func BenchmarkStressCacheWarm(b *testing.B) {
	dir := b.TempDir()
	warm := benchAnalyzer()
	if err := warm.EnableStressCache(dir); err != nil {
		b.Fatal(err)
	}
	ref, err := warm.StressFor(cudd.Plus, warm.Base.LayerPair, 4, warm.Base.WireWidth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := benchAnalyzer()
		if err := a.EnableStressCache(dir); err != nil {
			b.Fatal(err)
		}
		s, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 4, a.Base.WireWidth)
		if err != nil {
			b.Fatal(err)
		}
		if s[2][2] != ref[2][2] {
			b.Fatalf("disk round-trip changed sigma: %g != %g", s[2][2], ref[2][2])
		}
	}
}

// arrayChar runs a via-array characterization at benchmark scale.
func arrayChar(b *testing.B, a *core.Analyzer, pattern cudd.Pattern, n int, crit core.ArrayCriterion, trials int, seed int64) *core.ViaArrayCharacterization {
	b.Helper()
	c, err := a.CharacterizeViaArray(pattern, n, a.Base.WireWidth, 1e10, crit, trials, seed)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkFig8aViaArrayCDF regenerates Figure 8(a): per-criterion CDFs of a
// 4×4 Plus array.
func BenchmarkFig8aViaArrayCDF(b *testing.B) {
	a := benchAnalyzer()
	var firstMed float64
	for i := 0; i < b.N; i++ {
		c := arrayChar(b, a, cudd.Plus, 4, core.ArrayOpenCircuit(), 100, 1)
		e, err := stat.NewECDF(c.Result.CriterionSamples(1))
		if err != nil {
			b.Fatal(err)
		}
		firstMed = phys.SecondsToYears(e.Percentile(0.5))
	}
	b.ReportMetric(firstMed, "years-1st-via-median")
}

// BenchmarkFig8bPatternCDF regenerates Figure 8(b): pattern CDFs at n_F=8.
func BenchmarkFig8bPatternCDF(b *testing.B) {
	a := benchAnalyzer()
	var lGain float64
	for i := 0; i < b.N; i++ {
		plus := arrayChar(b, a, cudd.Plus, 4, core.ArrayResistance2x(), 100, 2)
		l := arrayChar(b, a, cudd.LShape, 4, core.ArrayResistance2x(), 100, 3)
		lGain = phys.SecondsToYears(l.Model.Dist.Median() - plus.Model.Dist.Median())
	}
	b.ReportMetric(lGain, "years-L-vs-Plus")
}

// BenchmarkFig9Redundancy regenerates Figure 9: the five configuration
// curves.
func BenchmarkFig9Redundancy(b *testing.B) {
	a := benchAnalyzer()
	var gain float64
	for i := 0; i < b.N; i++ {
		c1 := arrayChar(b, a, cudd.Plus, 1, core.ArrayOpenCircuit(), 100, 4)
		c8 := arrayChar(b, a, cudd.Plus, 8, core.ArrayResistance2x(), 100, 5)
		e1, err := stat.NewECDF(c1.Result.Samples)
		if err != nil {
			b.Fatal(err)
		}
		e8, err := stat.NewECDF(c8.Result.Samples)
		if err != nil {
			b.Fatal(err)
		}
		gain = phys.SecondsToYears(e8.Percentile(0.003) - e1.Percentile(0.003))
	}
	b.ReportMetric(gain, "years-8x8-vs-1x1-worstcase")
}

// BenchmarkFig10GridCDF regenerates Figure 10 at reduced scale: PG1-style
// grid, 4×4 arrays, the two extreme criterion combinations.
func BenchmarkFig10GridCDF(b *testing.B) {
	a := benchAnalyzer()
	g := benchGrid(b, 8)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		wl, err := a.AnalyzeGrid(core.GridAnalysis{
			Grid: g, ArrayN: 4, ArrayCriterion: core.ArrayWeakestLink(),
			SystemCriterion: pdn.WeakestLink, CharTrials: 100, GridTrials: 50, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		ir, err := a.AnalyzeGrid(core.GridAnalysis{
			Grid: g, ArrayN: 4, ArrayCriterion: core.ArrayOpenCircuit(),
			SystemCriterion: pdn.IRDrop, IRDropFrac: 0.10, CharTrials: 100, GridTrials: 50, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		spread = ir.WorstCaseYears() / wl.WorstCaseYears()
	}
	b.ReportMetric(spread, "x-realistic-vs-weakestlink")
}

// BenchmarkTable2GridTTF regenerates one Table 2 cell per benchmark grid
// size (PG1-like row, IR-drop system, open-circuit arrays).
func BenchmarkTable2GridTTF(b *testing.B) {
	a := benchAnalyzer()
	g := benchGrid(b, 10)
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := a.AnalyzeGrid(core.GridAnalysis{
			Grid: g, ArrayN: 4, ArrayCriterion: core.ArrayOpenCircuit(),
			SystemCriterion: pdn.IRDrop, IRDropFrac: 0.10, CharTrials: 100, GridTrials: 50, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = rep.WorstCaseYears()
	}
	b.ReportMetric(worst, "years-worstcase")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationPreconditioner compares FEA solve time under the three
// preconditioners on the same 4×4 structure.
func BenchmarkAblationPreconditioner(b *testing.B) {
	for _, pc := range []string{"none", "jacobi", "ic0"} {
		b.Run(pc, func(b *testing.B) {
			a := benchAnalyzer()
			p := a.Base
			p.ArrayN = 4
			for i := 0; i < b.N; i++ {
				if _, err := cudd.Characterize(p, fem.SolveOptions{Precond: pc}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ablationConfig builds a 4×4 array config with FEA-like graded stress.
func ablationConfig(n, failK int) viaarray.Config {
	sigma := make([][]float64, n)
	for r := range sigma {
		sigma[r] = make([]float64, n)
		for c := range sigma[r] {
			edge := r == 0 || c == 0 || r == n-1 || c == n-1
			if edge {
				sigma[r][c] = 230e6
			} else {
				sigma[r][c] = 215e6
			}
		}
	}
	return viaarray.Config{
		N: n, SigmaT: sigma, EM: emdist.Default(),
		CurrentDensity: 1e10, ViaArea: 1e-12,
		RVia: 0.15 * float64(n*n), RSegBottom: 0.02, RSegTop: 0.02,
		FailK: failK,
	}
}

// BenchmarkAblationCrowding isolates the current-crowding model: corner feed
// (network solve) vs uniform feed.
func BenchmarkAblationCrowding(b *testing.B) {
	for _, mode := range []struct {
		name string
		feed viaarray.FeedMode
	}{{"network", viaarray.CornerFeed}, {"uniform", viaarray.UniformFeed}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := ablationConfig(4, 16)
			cfg.Feed = mode.feed
			var med float64
			for i := 0; i < b.N; i++ {
				res, err := viaarray.Characterize(cfg, 200, 8, "")
				if err != nil {
					b.Fatal(err)
				}
				med = phys.SecondsToYears(res.Model.Dist.Median())
			}
			b.ReportMetric(med, "years-median")
		})
	}
}

// BenchmarkAblationLumpedStress isolates the per-via stress table: graded
// FEA stress vs a single lumped value for all vias.
func BenchmarkAblationLumpedStress(b *testing.B) {
	for _, mode := range []string{"pervia", "lumped"} {
		b.Run(mode, func(b *testing.B) {
			cfg := ablationConfig(4, 16)
			if mode == "lumped" {
				// Lump at the array peak, the conservative prior-art choice.
				for r := range cfg.SigmaT {
					for c := range cfg.SigmaT[r] {
						cfg.SigmaT[r][c] = 230e6
					}
				}
			}
			var med float64
			for i := 0; i < b.N; i++ {
				res, err := viaarray.Characterize(cfg, 200, 9, "")
				if err != nil {
					b.Fatal(err)
				}
				med = phys.SecondsToYears(res.Model.Dist.Median())
			}
			b.ReportMetric(med, "years-median")
		})
	}
}

// BenchmarkAblationAging isolates damage-accumulation aging after current
// redistribution.
func BenchmarkAblationAging(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"aging", false}, {"frozen", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := ablationConfig(4, 16)
			cfg.DisableAging = mode.disable
			var med float64
			for i := 0; i < b.N; i++ {
				res, err := viaarray.Characterize(cfg, 200, 10, "")
				if err != nil {
					b.Fatal(err)
				}
				med = phys.SecondsToYears(res.Model.Dist.Median())
			}
			b.ReportMetric(med, "years-median")
		})
	}
}

// BenchmarkGridSolve measures the cold pristine solve a grid job pays before
// its Monte Carlo, across grid sizes: CalibrateLoad (compile, AMD order,
// symbolic analysis, numeric factor and solve) and then MaxViaCurrent (the
// busiest array, which restamps the rescaled loads and solves again). Each
// iteration generates a fresh PG1 grid outside the timer, as a job does from
// its spec, since a grid caches its solved circuit.
func BenchmarkGridSolve(b *testing.B) {
	// Every size runs the AMD-ordered supernodal solver; nx200 (80k
	// unknowns) is slow, so bench_snapshot.sh runs it at a reduced
	// -benchtime.
	for _, nx := range []int{10, 20, 40, 64, 100, 200} {
		b.Run(sizeName(nx), func(b *testing.B) {
			spec := pdn.PresetSpec("PG1", nx, nx, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := pdn.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := g.CalibrateLoad(0.065); err != nil {
					b.Fatal(err)
				}
				if _, _, err := g.MaxViaCurrent(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(nx int) string {
	return fmt.Sprintf("nx%d", nx)
}

// benchLaplacian builds an nx×nx unit-edge mesh Laplacian (with a small
// diagonal leak making it SPD) — the matrix shape of the power-grid MNA
// systems, used to benchmark the sparse Cholesky kernel in isolation.
func benchLaplacian(nx int) *sparse.CSR {
	n := nx * nx
	tr := sparse.NewTriplet(n, n, 5*n)
	id := func(ix, iy int) int { return ix*nx + iy }
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < nx; iy++ {
			i := id(ix, iy)
			tr.Add(i, i, 1e-3)
			if ix+1 < nx {
				j := id(ix+1, iy)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
			if iy+1 < nx {
				j := id(ix, iy+1)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
		}
	}
	return tr.ToCSR()
}

// BenchmarkSparseCholeskyFactorSupernodal measures the power-grid solver on
// a 64×64 mesh Laplacian (4096 unknowns, the nx40 power-grid scale): the
// numeric refactorization, a clone plus refactor (the private numeric copy a
// failure-cascade rebase factors), and 16 single-vector triangular solves.
func BenchmarkSparseCholeskyFactorSupernodal(b *testing.B) {
	a := benchLaplacian(64)
	n, _ := a.Dims()
	sp, err := solver.NewSupernodalCholeskyFromCSR(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Refactor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sp.RefactorFromCSR(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CloneRefactor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sp.Clone().RefactorFromCSR(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	const nrhs = 16
	rhs := make([]float64, nrhs*n)
	x := make([]float64, nrhs*n)
	for i := range rhs {
		rhs[i] = 1e-3 * float64(i%17)
	}
	var ws solver.Workspace
	b.Run("Solve16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < nrhs; v++ {
				if err := sp.SolveWith(&ws, x[v*n:(v+1)*n], rhs[v*n:(v+1)*n]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWilkinson measures the lognormal-closure helper used in the TTF
// lognormality argument.
func BenchmarkWilkinson(b *testing.B) {
	terms := make([]stat.LogNormal, 16)
	for i := range terms {
		terms[i] = stat.LogNormal{Mu: float64(i) * 0.1, Sigma: 0.3}
	}
	var m float64
	for i := 0; i < b.N; i++ {
		ln, err := stat.WilkinsonSum(terms)
		if err != nil {
			b.Fatal(err)
		}
		m = ln.Mean()
	}
	if math.IsNaN(m) {
		b.Fatal("NaN mean")
	}
}

// BenchmarkAblationSpacingRule compares the paper's equal-area via geometry
// against design-rule-constrained spacing (the paper's stated future work):
// wider gaps change the inter-via stress relief.
func BenchmarkAblationSpacingRule(b *testing.B) {
	for _, mode := range []struct {
		name    string
		spacing float64
	}{{"equalarea", 0}, {"ruled", 0.3 * phys.Micron}} {
		b.Run(mode.name, func(b *testing.B) {
			a := benchAnalyzer()
			p := a.Base
			p.ArrayN = 4
			p.Pattern = cudd.Plus
			p.ViaSpacing = mode.spacing
			var spread float64
			for i := 0; i < b.N; i++ {
				res, err := cudd.Characterize(p, a.FEA)
				if err != nil {
					b.Fatal(err)
				}
				spread = (res.MaxPeak() - res.MinPeak()) / phys.MPa
			}
			b.ReportMetric(spread, "MPa-spread")
		})
	}
}

// BenchmarkBaselineBlack measures the traditional flow for comparison with
// BenchmarkTable2GridTTF: the analytic weakest-link Black evaluation is
// orders of magnitude cheaper — and stress-blind.
func BenchmarkBaselineBlack(b *testing.B) {
	g := benchGrid(b, 10)
	black := baseline.DefaultBlack()
	b.ResetTimer()
	var med float64
	for i := 0; i < b.N; i++ {
		v, err := baseline.WeakestLinkGridTTF(g, black, 1e-12, phys.CelsiusToKelvin(105), 0.5)
		if err != nil {
			b.Fatal(err)
		}
		med = phys.SecondsToYears(v)
	}
	b.ReportMetric(med, "years-median")
}

// BenchmarkKorhonenPDE measures the transient stress-evolution solve that
// validates equation (1).
func BenchmarkKorhonenPDE(b *testing.B) {
	l := korhonen.Line{Length: 200e-6, EM: emdist.Default(), J: 1e10}
	tn := l.NucleationTimeClosedForm(100e6)
	for i := 0; i < b.N; i++ {
		if _, err := l.Solve(2*tn, korhonen.SolveOptions{Nodes: 200, Steps: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridMCScreened measures the -engine=both payoff on the nx200
// Monte-Carlo path (40 000 via arrays, weakest-link system criterion — the
// sampling-bound regime where lifetime draws are the whole trial cost). The
// grid is tuned to a realistic 1 % nominal IR budget, where the steady
// screen classifies ~14 % of the arrays mortal; the screened run samples
// only those, so the pair exposes the end-to-end pruning speedup directly.
// Both sub-benchmarks run identical trial counts from the same seed, and
// the screened one asserts the zero-miss contract every iteration.
func BenchmarkGridMCScreened(b *testing.B) {
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 200, 200
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	const refViaAmps = 0.01
	if err := g.Tune(0.010, refViaAmps); err != nil {
		b.Fatal(err)
	}
	_, screen, err := pdn.Analyze(context.Background(), pdn.TTFConfig{Grid: g}, pdn.ScreenConfig{}, mc.Options{Engine: mc.EngineSteady})
	if err != nil {
		b.Fatal(err)
	}
	if screen.MortalVias == 0 {
		b.Fatal("screen classified no via mortal")
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	cfg := pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion: pdn.WeakestLink,
	}
	opt := mc.Options{Trials: 50, Seed: 9}

	b.Run("unscreened", func(b *testing.B) {
		sys, err := pdn.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mc.Run(sys, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("screened", func(b *testing.B) {
		sys, err := pdn.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		popt := opt
		popt.Engine = mc.EngineBoth
		popt.Candidates = screen.CandidateMask()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mc.Run(sys, popt)
			if err != nil {
				b.Fatal(err)
			}
			if misses := res.MaskMisses(screen.ViaMortal); len(misses) != 0 {
				b.Fatalf("failures outside the mortal set: %v", misses)
			}
		}
		b.ReportMetric(100*screen.MortalViaFraction(), "%mortal")
	})
}

// BenchmarkGridMCSharded measures the distributed-sharding payoff on the
// nx200 Monte-Carlo phase: the job's 50-trial range split into 1/2/4
// contiguous shards run by concurrent local shard workers (mc
// Options.FirstTrial), exactly as serve's local executor pool dispatches
// them. shards=1 is the single-process baseline. Because trial t always
// seeds from trialSeed(seed, t) regardless of which shard runs it, every
// variant reassembles the identical TTF vector — asserted each iteration —
// so the sub-benchmarks differ only in wall clock. The speedup requires
// spare cores: on a single-CPU host the shard workers serialize and the
// variants measure sharding overhead instead.
func BenchmarkGridMCSharded(b *testing.B) {
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 200, 200
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	const refViaAmps = 0.01
	if err := g.Tune(0.010, refViaAmps); err != nil {
		b.Fatal(err)
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	cfg := pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion: pdn.WeakestLink,
	}
	const trials = 50
	opt := mc.Options{Trials: trials, Seed: 9}

	// The single-process reference TTF vector every sharded variant must
	// reproduce bit for bit.
	refSys, err := pdn.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	refRes, err := mc.Run(refSys, opt)
	if err != nil {
		b.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// One engine per shard worker, built outside the timed region —
			// the fleet analogue is each worker process holding its own grid.
			systems := make([]*pdn.GridSystem, shards)
			for s := range systems {
				if systems[s], err = pdn.NewSystem(cfg); err != nil {
					b.Fatal(err)
				}
			}
			q, r := trials/shards, trials%shards
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ttf := make([]float64, trials)
				var wg sync.WaitGroup
				errs := make([]error, shards)
				start := 0
				for s := 0; s < shards; s++ {
					count := q
					if s < r {
						count++
					}
					wg.Add(1)
					go func(s, start, count int) {
						defer wg.Done()
						o := opt
						o.FirstTrial = start
						o.Trials = count
						res, err := mc.Run(systems[s], o)
						if err != nil {
							errs[s] = err
							return
						}
						copy(ttf[start:start+count], res.TTF)
					}(s, start, count)
					start += count
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				for t, v := range ttf {
					if v != refRes.TTF[t] {
						b.Fatalf("shards=%d trial %d: TTF %g, single-process %g", shards, t, v, refRes.TTF[t])
					}
				}
			}
		})
	}
}
