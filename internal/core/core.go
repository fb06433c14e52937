// Package core is the public face of the library: it wires the full
// methodology of the DAC'17 paper into one pipeline.
//
//	FEA stress precharacterization (cudd + fem)     — paper §3
//	    ↓ per-via σ_T                                (memo + StressCache)
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
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

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

// Analyzer bundles the technology parameters of an analysis flow. Its
// fields may change between calls; a copy (b := *a) with changed fields
// shares the original's memo.
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
	// underneath the in-memory memo (see StressCache and
	// EnableStressCache). Like PackageStress, it stores the geometry-only
	// stress. Disk writes are best-effort: a failed write never fails the
	// analysis.
	Disk *StressCache

	// memo holds the stress solves and via-array characterizations of this
	// analyzer and of every copy of it, each keyed by every input that
	// shapes it. A copy with a changed field therefore reuses what still
	// applies and never reads what does not. nil (an Analyzer not made by
	// NewAnalyzer) memoizes nothing.
	memo *memo
}

// memo is the in-memory tier of the Analyzer's FEA stress solves and
// via-array characterizations, shared by every copy of the analyzer that
// made it. An entry is keyed by the bytes of every input that shapes it: a
// stress solve by appendStructure's layout (what StressCache.Key hashes,
// less the material table, which a process never changes), a
// characterization by that layout followed by its own inputs. A byte key
// hashes as one block, where a struct of floats would hash field by field.
// Concurrent misses on one key both compute; they store the same result.
type memo struct {
	mu      sync.Mutex
	entries map[string]any
}

// memoized returns m's entry for key k, or computes, stores and returns it,
// counting the lookup under the hit or miss telemetry name. A nil m
// computes every time; an error is never stored.
func memoized[T any](m *memo, k []byte, hit, miss string, compute func() (T, error)) (T, error) {
	var v any
	ok := false
	if m != nil {
		m.mu.Lock()
		v, ok = m.entries[string(k)]
		m.mu.Unlock()
	}
	if r := telemetry.Default(); r != nil {
		if ok {
			r.Counter(hit).Inc()
		} else {
			r.Counter(miss).Inc()
		}
	}
	if ok {
		return v.(T), nil
	}
	out, err := compute()
	if err == nil && m != nil {
		m.mu.Lock()
		m.entries[string(k)] = out
		m.mu.Unlock()
	}
	return out, err
}

// NewAnalyzer returns an analyzer with the paper's nominal technology:
// 32 nm-class Cu DD geometry, 105 °C operation, calibrated EM constants.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Base: cudd.DefaultParams(),
		EM:   emdist.Default(),
		memo: &memo{entries: make(map[string]any)},
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
// result (the memo stores the geometry-only part, so PackageStress may be
// changed between calls without refactoring). The memo keys on the whole
// structure and the solver settings, so Base and FEA may change too.
func (a *Analyzer) StressFor(pattern cudd.Pattern, pair cudd.LayerPair, arrayN int, width float64) ([][]float64, error) {
	return a.stressFor(a.params(pattern, pair, arrayN, width))
}

// params returns Base with the per-query fields overridden: the structure
// one stress solve or characterization belongs to.
func (a *Analyzer) params(pattern cudd.Pattern, pair cudd.LayerPair, n int, width float64) cudd.Params {
	p := a.Base
	p.Pattern, p.LayerPair, p.ArrayN, p.WireWidth = pattern, pair, n, width
	return p
}

// stressFor is StressFor on fully overridden params. A geometry-only stress
// matrix comes from the memo, else from the persistent cache, else from a
// new FEA solve, which is stored in both.
func (a *Analyzer) stressFor(p cudd.Params) ([][]float64, error) {
	var buf [512]byte
	s, err := memoized(a.memo, appendStructure(buf[:0], &p, a.FEA), telemetry.StressMemHits, telemetry.StressMemMisses,
		func() ([][]float64, error) {
			var diskKey string
			if a.Disk != nil {
				diskKey = a.Disk.Key(p, a.FEA)
				if sigma, ok := a.Disk.Get(diskKey); ok {
					return sigma, nil
				}
			}
			res, err := cudd.Characterize(p, a.FEA)
			if err != nil {
				return nil, err
			}
			if a.Disk != nil {
				// Best-effort: an unwritable cache directory must not fail
				// the analysis, only forfeit reuse.
				_ = a.Disk.Put(diskKey, res.PeakSigmaT)
			}
			return res.PeakSigmaT, nil
		})
	if err != nil || a.PackageStress == 0 {
		return s, err
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

// FailK resolves the criterion to the via count n_F that fails an n×n
// array.
func (c ArrayCriterion) FailK(n int) int {
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
// using the analyzer's base layer pair. Results are memoized under every
// input they depend on, so changing Base, EM, FEA or PackageStress between
// calls is safe. Callers must treat the returned characterization as
// read-only.
func (a *Analyzer) CharacterizeViaArray(pattern cudd.Pattern, arrayN int, width, j float64, crit ArrayCriterion, trials int, seed int64) (*ViaArrayCharacterization, error) {
	p := a.params(pattern, a.Base.LayerPair, arrayN, width)
	k := bytes.NewBuffer(appendStructure(nil, &p, a.FEA))
	if err := binary.Write(k, binary.LittleEndian, struct {
		em           emdist.Params
		pkg, j       float64
		crit         ArrayCriterion
		trials, seed int64
	}{a.EM, a.PackageStress, j, crit, int64(trials), seed}); err != nil {
		return nil, err
	}
	return memoized(a.memo, k.Bytes(), telemetry.CharHits, telemetry.CharMisses, func() (*ViaArrayCharacterization, error) {
		sigma, err := a.stressFor(p)
		if err != nil {
			return nil, err
		}
		cfg, err := viaarray.FromStructure(p, sigma, a.EM, j, crit.FailK(arrayN), 0)
		if err != nil {
			return nil, err
		}
		res, err := viaarray.Characterize(cfg, trials, seed,
			fmt.Sprintf("array:%s:%dx%d", pattern, arrayN, arrayN))
		if err != nil {
			return nil, err
		}
		return &ViaArrayCharacterization{Pattern: pattern, Result: res, Model: res.Model}, nil
	})
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

// PercentileCIYears returns the distribution-free order-statistic
// confidence interval (years) for a TTF percentile (stat.ECDF.PercentileCI)
// — the honest error bar on tail metrics like the paper's 0.3-percentile
// worst case, which rests on very few order statistics at N_trials = 500.
// An end the trial count is too small to give comes back Missing.
func (r *GridReport) PercentileCIYears(p, conf float64) (lo, hi stat.Bound, err error) {
	lo, hi, err = r.TTF.PercentileCI(p, conf)
	if !lo.Missing() {
		lo.Value = phys.SecondsToYears(lo.Value)
	}
	if !hi.Missing() {
		hi.Value = phys.SecondsToYears(hi.Value)
	}
	return lo, hi, err
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
	p := a.params(pattern, a.Base.LayerPair, arrayN, width)
	sigma, err := a.stressFor(p)
	if err != nil {
		return nil, err
	}
	cfg, err := viaarray.FromStructure(p, sigma, a.EM, j, 1, 0)
	if err != nil {
		return nil, err
	}
	return cfg.SteadyScreen(0)
}

// referenceCurrentDensity is the characterization current density of the
// paper's experiments (1e10 A/m² over the 1 µm² array).
func (a *Analyzer) referenceCurrentDensity() float64 { return 1e10 }
