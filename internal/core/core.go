// Package core is the public face of the library: it wires the full
// methodology of the DAC'17 paper into one pipeline.
//
//	FEA stress precharacterization (cudd + fem)     — paper §3
//	    ↓ per-via σ_T                                (chartable)
//	via-array reliability Monte Carlo (viaarray+mc) — paper §4, Alg. 1 step 1
//	    ↓ lognormal TTF models per pattern
//	power-grid reliability Monte Carlo (pdn+mc)     — paper §5, Alg. 1 step 2
//	    ↓ grid TTF CDF and worst-case percentiles
//
// An Analyzer owns the technology description (geometry, temperatures, EM
// constants, FEA resolution) and memoizes the expensive FEA step, mirroring
// the paper's observation that characterization is a one-time-per-technology
// cost.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"emvia/internal/chartable"
	"emvia/internal/cudd"
	"emvia/internal/emdist"
	"emvia/internal/fem"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/telemetry"
	"emvia/internal/viaarray"
)

// Analyzer bundles the technology parameters of an analysis flow.
type Analyzer struct {
	// Base is the Cu DD structure template (geometry, temperatures,
	// mesh resolution); Pattern/ArrayN/WireWidth are overridden per query.
	Base cudd.Params
	// EM is the nucleation-model parameter set.
	EM emdist.Params
	// FEA tunes the finite-element solves.
	FEA fem.SolveOptions
	// PackageStress is the uniform hydrostatic stress contribution of the
	// package (underfill / bump / die CTE mismatch), Pa, added to every
	// per-via σ_T. The paper treats it as an input to the method (§2.3);
	// it depends on die position, not interconnect geometry.
	PackageStress float64
	// Disk, when non-nil, persists FEA characterizations across processes
	// underneath the in-memory cache (see StressCache and
	// EnableStressCache). Like PackageStress, it stores the geometry-only
	// stress. Disk writes are best-effort: a failed write never fails the
	// analysis.
	Disk *StressCache

	mu    sync.Mutex
	cache map[stressKey][][]float64

	// charCache memoizes whole via-array characterizations the same way the
	// FEA cache memoizes stress solves: for a fixed seed the step-1 Monte
	// Carlo is a pure function of its inputs, and grid experiments routinely
	// re-request the same pattern/criterion/trials combination.
	charMu    sync.Mutex
	charCache map[charKey]*ViaArrayCharacterization
}

type stressKey struct {
	pattern cudd.Pattern
	pair    cudd.LayerPair
	n       int
	width   float64
}

type charKey struct {
	pattern cudd.Pattern
	pair    cudd.LayerPair
	n       int
	width   float64
	j       float64
	pkg     float64 // PackageStress feeds the sampled σ_T, so it keys too
	crit    ArrayCriterion
	trials  int
	seed    int64
}

// NewAnalyzer returns an analyzer with the paper's nominal technology:
// 32 nm-class Cu DD geometry, 105 °C operation, calibrated EM constants.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Base:  cudd.DefaultParams(),
		EM:    emdist.Default(),
		cache: make(map[stressKey][][]float64),
	}
}

// NewCLIAnalyzer returns the analyzer the command-line tools build from
// their -fast and -stresscache flags. fast selects the coarse FEA meshes the
// paper-figure goldens pin: one element per via, with tighter margins and a
// thinner substrate. A non-empty stressCache attaches the persistent stress
// cache in that directory; "auto" selects the default location
// (EMVIA_STRESS_CACHE or the user cache directory).
func NewCLIAnalyzer(fast bool, stressCache string) (*Analyzer, error) {
	a := NewAnalyzer()
	if fast {
		a.Base.Margin = 1.0 * phys.Micron
		a.Base.SubstrateThickness = 0.8 * phys.Micron
		a.Base.StepOutside = 0.5 * phys.Micron
		a.Base.StepZBulk = 1.0 * phys.Micron
	}
	if stressCache != "" {
		dir := stressCache
		if dir == "auto" {
			dir = ""
		}
		if err := a.EnableStressCache(dir); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// StressFor returns the per-via peak thermomechanical stress matrix for a
// via-array family, running (and memoizing) the FEA characterization. The
// analyzer's PackageStress is added on top of the layout-dependent FEA
// result (the cache stores the geometry-only part, so PackageStress may be
// changed between calls without refactoring).
func (a *Analyzer) StressFor(pattern cudd.Pattern, pair cudd.LayerPair, arrayN int, width float64) ([][]float64, error) {
	key := stressKey{pattern, pair, arrayN, width}
	a.mu.Lock()
	if a.cache == nil {
		a.cache = make(map[stressKey][][]float64)
	}
	s, ok := a.cache[key]
	a.mu.Unlock()
	if r := telemetry.Default(); r != nil {
		if ok {
			r.Counter(telemetry.StressMemHits).Inc()
		} else {
			r.Counter(telemetry.StressMemMisses).Inc()
		}
	}
	if !ok {
		p := a.Base
		p.Pattern = pattern
		p.LayerPair = pair
		p.ArrayN = arrayN
		p.WireWidth = width
		var err error
		s, err = a.characterizeSigma(p)
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		a.cache[key] = s
		a.mu.Unlock()
	}
	if a.PackageStress == 0 {
		return s, nil
	}
	out := make([][]float64, len(s))
	for i, row := range s {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			out[i][j] = v + a.PackageStress
		}
	}
	return out, nil
}

// EnableStressCache attaches a persistent stress cache rooted at dir (empty
// selects EMVIA_STRESS_CACHE or the user cache directory) so later runs with
// the same technology skip the FEA solves entirely.
func (a *Analyzer) EnableStressCache(dir string) error {
	c, err := OpenStressCache(dir)
	if err != nil {
		return err
	}
	a.Disk = c
	return nil
}

// characterizeSigma produces the geometry-only per-via stress matrix for
// fully overridden params, consulting the persistent cache when enabled.
func (a *Analyzer) characterizeSigma(p cudd.Params) ([][]float64, error) {
	var diskKey string
	if a.Disk != nil {
		diskKey = a.Disk.Key(p, a.FEA)
		if s, ok := a.Disk.Get(diskKey); ok {
			return s, nil
		}
	}
	res, err := cudd.Characterize(p, a.FEA)
	if err != nil {
		return nil, err
	}
	if a.Disk != nil {
		// Best-effort: an unwritable cache directory must not fail the
		// analysis, only forfeit reuse.
		_ = a.Disk.Put(diskKey, res.PeakSigmaT)
	}
	return res.PeakSigmaT, nil
}

// BuildStressTable runs the full §3.2 characterization campaign
// (9 × patterns × widths × configurations) into a persistent table, routing
// every solve through the persistent stress cache when one is enabled.
func (a *Analyzer) BuildStressTable(arrayNs []int, widths []float64, progress func(chartable.Key, float64)) (*chartable.Table, error) {
	return chartable.Build(chartable.BuildSpec{
		LayerPairs:   cudd.LayerPairs(),
		Patterns:     cudd.Patterns(),
		ArrayNs:      arrayNs,
		WireWidths:   widths,
		Base:         a.Base,
		Progress:     progress,
		Characterize: a.characterizeSigma,
	})
}

// ArrayCriterion expresses the via-array failure criterion of §4.
type ArrayCriterion struct {
	// WeakestLink fails the array at the first via failure.
	WeakestLink bool
	// ResistanceFactor fails the array when its equation-(5) resistance
	// reaches this multiple of nominal; +Inf means open circuit. Ignored
	// when WeakestLink is set.
	ResistanceFactor float64
}

// ArrayWeakestLink is the traditional first-via criterion.
func ArrayWeakestLink() ArrayCriterion { return ArrayCriterion{WeakestLink: true} }

// ArrayOpenCircuit is the R = ∞ criterion (all vias fail).
func ArrayOpenCircuit() ArrayCriterion {
	return ArrayCriterion{ResistanceFactor: math.Inf(1)}
}

// ArrayResistance2x is the R = 2× criterion (half the vias fail).
func ArrayResistance2x() ArrayCriterion { return ArrayCriterion{ResistanceFactor: 2} }

// String names the criterion as in the paper.
func (c ArrayCriterion) String() string {
	switch {
	case c.WeakestLink:
		return "Weakest-link"
	case math.IsInf(c.ResistanceFactor, 1):
		return "R=inf"
	default:
		return fmt.Sprintf("R=%gx", c.ResistanceFactor)
	}
}

// failK resolves the criterion to a via count for an n×n array.
func (c ArrayCriterion) failK(n int) int {
	if c.WeakestLink {
		return 1
	}
	return viaarray.FailKForResistanceFactor(n, c.ResistanceFactor)
}

// ViaArrayCharacterization is the §5.1 output for one pattern.
type ViaArrayCharacterization struct {
	Pattern cudd.Pattern
	Result  *viaarray.CharResult
	Model   viaarray.TTFModel
}

// CharacterizeViaArray runs the step-1 Monte Carlo for one pattern at the
// paper's reference conditions (current density j over the array area),
// using the analyzer's base layer pair.
func (a *Analyzer) CharacterizeViaArray(pattern cudd.Pattern, arrayN int, width, j float64, crit ArrayCriterion, trials int, seed int64) (*ViaArrayCharacterization, error) {
	return a.CharacterizeViaArrayPair(pattern, a.Base.LayerPair, arrayN, width, j, crit, trials, seed)
}

// CharacterizeViaArrayPair is CharacterizeViaArray for an explicit metal
// layer pair (multi-layer grids characterize all three pair classes).
// Results are memoized per analyzer: like the FEA cache, this assumes the
// technology parameters (Base, EM, FEA) are fixed once characterization
// starts. Callers must treat the returned characterization as read-only.
func (a *Analyzer) CharacterizeViaArrayPair(pattern cudd.Pattern, pair cudd.LayerPair, arrayN int, width, j float64, crit ArrayCriterion, trials int, seed int64) (*ViaArrayCharacterization, error) {
	ck := charKey{pattern, pair, arrayN, width, j, a.PackageStress, crit, trials, seed}
	a.charMu.Lock()
	cached, ok := a.charCache[ck]
	a.charMu.Unlock()
	if r := telemetry.Default(); r != nil {
		if ok {
			r.Counter(telemetry.CharHits).Inc()
		} else {
			r.Counter(telemetry.CharMisses).Inc()
		}
	}
	if ok {
		return cached, nil
	}
	sigma, err := a.StressFor(pattern, pair, arrayN, width)
	if err != nil {
		return nil, err
	}
	p := a.Base
	p.Pattern = pattern
	p.LayerPair = pair
	p.ArrayN = arrayN
	p.WireWidth = width
	cfg, err := viaarray.FromStructure(p, sigma, a.EM, j, crit.failK(arrayN), 0)
	if err != nil {
		return nil, err
	}
	res, err := viaarray.CharacterizeNamed(cfg, trials, seed,
		fmt.Sprintf("array:%s:%dx%d", pattern, arrayN, arrayN))
	if err != nil {
		return nil, err
	}
	out := &ViaArrayCharacterization{Pattern: pattern, Result: res, Model: res.Model}
	a.charMu.Lock()
	if a.charCache == nil {
		a.charCache = make(map[charKey]*ViaArrayCharacterization)
	}
	a.charCache[ck] = out
	a.charMu.Unlock()
	return out, nil
}

// ViaArrayModels characterizes all three intersection patterns and returns
// the per-pattern TTF models the grid analysis consumes.
func (a *Analyzer) ViaArrayModels(arrayN int, width, j float64, crit ArrayCriterion, trials int, seed int64) (map[cudd.Pattern]viaarray.TTFModel, error) {
	models := make(map[cudd.Pattern]viaarray.TTFModel, 3)
	for i, pat := range cudd.Patterns() {
		c, err := a.CharacterizeViaArray(pat, arrayN, width, j, crit, trials, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("core: characterizing %v arrays: %w", pat, err)
		}
		models[pat] = c.Model
	}
	return models, nil
}

// GridAnalysis describes one §5.2 experiment.
type GridAnalysis struct {
	// Grid is the power grid (synthetic or imported).
	Grid *pdn.Grid
	// ArrayN selects the via configuration used grid-wide (paper: one
	// configuration per experiment, 4×4 or 8×8).
	ArrayN int
	// ArrayCriterion is the via-array failure criterion.
	ArrayCriterion ArrayCriterion
	// SystemCriterion is the grid failure criterion.
	SystemCriterion pdn.Criterion
	// IRDropFrac is the IR threshold for pdn.IRDrop (paper: 0.10).
	IRDropFrac float64
	// CharTrials and GridTrials are the Monte-Carlo sizes of the two
	// hierarchy levels (paper: 500).
	CharTrials, GridTrials int
	// Seed drives both levels reproducibly.
	Seed int64
	// TTFScale optionally derates each via array's TTF (g.Grid.Vias
	// order), e.g. from AnalyzeGridThermal's local-temperature factors.
	TTFScale []float64
	// Engine selects the analysis engine (mc.EngineMC/EngineBoth; empty =
	// mc; the grid analyses reject EngineSteady). EngineBoth runs the
	// linear-time steady-state screen first and prunes the Monte Carlo to its
	// mortal subset; the legacy mc engine is byte-identical to runs that
	// predate the screen.
	Engine string
}

// GridReport is the outcome of a grid analysis.
type GridReport struct {
	Analysis GridAnalysis
	// Models are the per-pattern array TTF models used.
	Models map[cudd.Pattern]viaarray.TTFModel
	// MC is the raw grid-level Monte-Carlo result.
	MC *mc.Result
	// TTF is the ECDF of the finite grid TTFs (seconds).
	TTF *stat.ECDF
	// Screen is the steady-state classification a "both"-engine run pruned
	// against; nil for the legacy mc engine.
	Screen *pdn.GridScreen
}

// WorstCaseYears returns the paper's headline metric: the 0.3-percentile
// grid TTF in years.
func (r *GridReport) WorstCaseYears() float64 {
	return phys.SecondsToYears(r.TTF.Percentile(0.003))
}

// MedianYears returns the median grid TTF in years.
func (r *GridReport) MedianYears() float64 {
	return phys.SecondsToYears(r.TTF.Percentile(0.5))
}

// PercentileYears returns an arbitrary TTF percentile in years.
func (r *GridReport) PercentileYears(p float64) float64 {
	return phys.SecondsToYears(r.TTF.Percentile(p))
}

// PercentileCIYears returns a bootstrap confidence interval (years) for a
// TTF percentile — the honest error bar on tail metrics like the paper's
// 0.3-percentile worst case, which rests on very few order statistics at
// N_trials = 500.
func (r *GridReport) PercentileCIYears(p, conf float64, seed int64) (lo, hi float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	lo, hi, err = stat.BootstrapPercentileCI(r.TTF.Values(), p, conf, 400, rng)
	if err != nil {
		return 0, 0, err
	}
	return phys.SecondsToYears(lo), phys.SecondsToYears(hi), nil
}

// validate rejects an analysis the grid level cannot run, before any
// characterization is spent on it: a missing grid, or an engine other than
// mc and both. The steady engine classifies a grid without sampling a
// lifetime, so it has no TTF distribution to report; pdn.Analyze runs it.
func (g GridAnalysis) validate() error {
	if g.Grid == nil {
		return fmt.Errorf("core: GridAnalysis needs a grid")
	}
	engine, err := mc.ParseEngine(g.Engine)
	if err != nil {
		return err
	}
	if engine == mc.EngineSteady {
		return fmt.Errorf("core: the steady engine produces no TTF distribution; a grid analysis needs engine mc or both")
	}
	return nil
}

// AnalyzeGrid runs the full two-level pipeline for one experiment.
func (a *Analyzer) AnalyzeGrid(g GridAnalysis) (*GridReport, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if g.CharTrials == 0 {
		g.CharTrials = 500
	}
	width := g.Grid.Spec.WireWidth
	if width == 0 {
		width = a.Base.WireWidth
	}
	j := a.referenceCurrentDensity()
	models, err := a.ViaArrayModels(g.ArrayN, width, j, g.ArrayCriterion, g.CharTrials, g.Seed)
	if err != nil {
		return nil, err
	}
	return a.AnalyzeGridWithModels(g, models)
}

// AnalyzeGridWithModels runs the grid-level Monte Carlo with precomputed
// per-pattern via-array TTF models (e.g. loaded from a viaarray.ModelSet, or
// a mixed set where each pattern uses a different array configuration — the
// paper notes "a combination of the via array configuration can be used").
func (a *Analyzer) AnalyzeGridWithModels(g GridAnalysis, models map[cudd.Pattern]viaarray.TTFModel) (*GridReport, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if g.GridTrials == 0 {
		g.GridTrials = 500
	}
	res, screen, err := pdn.Analyze(context.TODO(), pdn.TTFConfig{
		Grid:       g.Grid,
		Models:     models,
		Criterion:  g.SystemCriterion,
		IRDropFrac: g.IRDropFrac,
		TTFScale:   g.TTFScale,
	}, pdn.ScreenConfig{EM: a.EM}, mc.Options{Trials: g.GridTrials, Seed: g.Seed + 1000, Engine: g.Engine})
	if err != nil {
		return nil, err
	}
	finite := res.FiniteTTF()
	if len(finite) == 0 {
		return nil, fmt.Errorf("core: no trial reached the system failure criterion")
	}
	ecdf, err := stat.NewECDF(finite)
	if err != nil {
		return nil, err
	}
	return &GridReport{Analysis: g, Models: models, MC: res, TTF: ecdf, Screen: screen}, nil
}

// ArraySteadyScreen is the -engine=steady analog of CharacterizeViaArray:
// it builds the via-array configuration for the pattern at the reference
// conditions (FEA thermal pre-stress included) and runs the linear-time
// steady-state screen — no Monte Carlo, just the immortal/mortal
// classification with per-via stress margins.
func (a *Analyzer) ArraySteadyScreen(pattern cudd.Pattern, arrayN int, width, j float64) (*viaarray.ArrayScreen, error) {
	sigma, err := a.StressFor(pattern, a.Base.LayerPair, arrayN, width)
	if err != nil {
		return nil, err
	}
	p := a.Base
	p.Pattern = pattern
	p.ArrayN = arrayN
	p.WireWidth = width
	cfg, err := viaarray.FromStructure(p, sigma, a.EM, j, 1, 0)
	if err != nil {
		return nil, err
	}
	return cfg.SteadyScreen(0)
}

// referenceCurrentDensity is the characterization current density of the
// paper's experiments (1e10 A/m² over the 1 µm² array).
func (a *Analyzer) referenceCurrentDensity() float64 { return 1e10 }
