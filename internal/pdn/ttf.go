package pdn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/solver"
	"emvia/internal/spice"
	"emvia/internal/stat"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// Criterion is the power-grid (system-level) failure criterion of §5.2.
type Criterion int

// System failure criteria.
const (
	// WeakestLink declares the grid dead at the first via-array failure —
	// the traditional, pessimistic criterion the paper argues against.
	WeakestLink Criterion = iota
	// IRDrop declares the grid dead when the worst IR drop exceeds a
	// fraction of Vdd (paper: 10 %), crediting mesh redundancy.
	IRDrop
)

// String names the criterion as in the paper's tables.
func (c Criterion) String() string {
	switch c {
	case WeakestLink:
		return "Weakest-link"
	case IRDrop:
		return "IR-drop"
	}
	return fmt.Sprintf("pdn.Criterion(%d)", int(c))
}

// ParseCriterion maps the short spelling of the command line and the job
// spec ("wl" or "ir") to a criterion.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "wl":
		return WeakestLink, nil
	case "ir":
		return IRDrop, nil
	}
	return 0, fmt.Errorf("pdn: unknown criterion %q (want wl or ir)", s)
}

// TTFConfig describes a grid TTF analysis.
type TTFConfig struct {
	// Grid is the power grid under analysis.
	Grid *Grid
	// Models maps each intersection pattern to its characterized via-array
	// TTF model (paper §5.1 output). All three patterns present in the
	// grid must be covered.
	Models map[cudd.Pattern]viaarray.TTFModel
	// Criterion selects the system failure criterion.
	Criterion Criterion
	// IRDropFrac is the IR-drop threshold as a fraction of Vdd (paper:
	// 0.10); required when Criterion == IRDrop.
	IRDropFrac float64
	// TTFScale optionally multiplies each array's sampled TTF (g.Vias
	// order): the hook for local-temperature derating (Arrhenius + stress
	// relaxation) computed by the thermal analysis. Nil means uniform 1.
	TTFScale []float64
}

// Validate checks the configuration against the grid.
func (c TTFConfig) Validate() error {
	if c.Grid == nil {
		return fmt.Errorf("pdn: TTFConfig needs a grid")
	}
	for pat := range c.Grid.PatternCounts() {
		if _, ok := c.Models[pat]; !ok {
			return fmt.Errorf("pdn: no TTF model for %v via arrays", pat)
		}
	}
	if c.Criterion == IRDrop && (c.IRDropFrac <= 0 || c.IRDropFrac >= 1) {
		return fmt.Errorf("pdn: IRDropFrac must be in (0,1), got %g", c.IRDropFrac)
	}
	if c.TTFScale != nil {
		if len(c.TTFScale) != len(c.Grid.Vias) {
			return fmt.Errorf("pdn: TTFScale has %d entries, want %d", len(c.TTFScale), len(c.Grid.Vias))
		}
		for k, s := range c.TTFScale {
			if s <= 0 || math.IsNaN(s) {
				return fmt.Errorf("pdn: TTFScale[%d] = %g invalid", k, s)
			}
		}
	}
	return nil
}

// GridSystem is the mc.System of the second hierarchy level: components are
// via arrays, failure opens them, and the criterion is grid IR integrity.
//
// A master (NewSystem) and its Clones share the pristine compiled circuit,
// its factor and operating point, and one response cache, all read-only
// while trials run; each instance owns only its trial state. An IR-drop
// trial's failures never edit or re-solve the shared factor: opening an
// array is a low-rank update of the pristine solution (cascade.go), and only
// a trial that outgrows the update rebases on a private refactored copy. The
// IR criterion reads the cascade's free-node solution and the least pad
// voltage directly, so a cascade step builds no operating point.
//
// Every per-trial pass — reset, sampling, current update — walks one
// ascending candidate list: every array, or the steady screen's mortal
// subset once SetCandidates installs a mask. sampleTTFs owns a trial's
// sampling stream, which BeginTrial draws.
type GridSystem struct {
	cfg TTFConfig

	// Shared by a master and its clones; never written once NewSystem
	// returns (the cache publishes write-once entries).
	circuit *spice.Circuit
	op0     *spice.OP  // pristine operating point
	i0      []float64  // pristine per-array current magnitudes
	y0      []float64  // pristine free-node solution
	padMin  float64    // least pad voltage (+Inf without pads)
	terms   []viaTerms // per-array edit vector (IR-drop only)
	cache   *responseCache
	// dist and scale are each array's sampling table, read by sampleTTF:
	// its model's lognormal and the model's (I_ref/I₀)² at the pristine
	// current (+Inf for an array carrying none).
	dist  []stat.LogNormal
	scale []float64
	// rankCap is the update rank at which a trial rebases (cascadeRankCap);
	// tests lower it to force rebases.
	rankCap int
	met     cascadeMetrics

	alive       []bool
	baseTTF     []float64
	iNow        []float64
	failedCount int
	failed      []int // arrays opened so far in this trial, in order

	// casc holds the trial's free-node solution (from BeginTrial on; its
	// base is nil before) and rbOP the scratch operating point a rebase
	// solves into, allocated on the first rebase.
	casc cascade
	rbOP *spice.OP
	ws   solver.Workspace // this instance's solve scratch
	rhs  []float64        // response right-hand sides, all zero between uses

	// candidates is the ascending index list of the arrays a trial samples,
	// fails and updates: every array, or with masked set the steady screen's
	// mortal mask (mc.CandidateMasker). Arrays outside a mask never fail:
	// their +Inf TTF, liveness and nominal current are written once
	// (initTrialState). sub is the reusable substream generator of masked
	// sampling.
	candidates []int
	masked     bool
	sub        *rand.Rand
}

// NewSystem builds a master system over the grid's shared compiled circuit
// and its pristine operating point (see Grid.pristine), both read-only. It
// rejects grids whose nominal IR drop already violates the criterion.
func NewSystem(cfg TTFConfig) (*GridSystem, error) {
	return NewSystemCtx(context.Background(), cfg)
}

// NewSystemCtx is NewSystem with a context whose timeline (if any) gets the
// "compile" and "factorize" stage spans. The context is observational only:
// system construction is a bounded amount of work and does not check for
// cancellation.
func NewSystemCtx(ctx context.Context, cfg TTFConfig) (*GridSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	circuit, op, err := cfg.Grid.pristine(trace.TimelineFrom(ctx))
	if err != nil {
		return nil, err
	}
	if cfg.Criterion == IRDrop {
		if frac := op.WorstIRDropFrac(cfg.Grid.Spec.Vdd); frac >= cfg.IRDropFrac {
			return nil, fmt.Errorf("pdn: nominal IR drop %.1f%% already violates the %.1f%% criterion; calibrate the load first",
				frac*100, cfg.IRDropFrac*100)
		}
	}
	return newSystem(cfg, circuit, op)
}

// newSystem builds a master over a solved pristine circuit and its
// operating point. Only IR-drop trials re-solve, so only they get the
// cascade's shared state.
func newSystem(cfg TTFConfig, circuit *spice.Circuit, op *spice.OP) (*GridSystem, error) {
	s := &GridSystem{cfg: cfg, circuit: circuit, op0: op, met: newCascadeMetrics(), padMin: math.Inf(1)}
	nv := len(cfg.Grid.Vias)
	s.i0 = make([]float64, nv)
	s.dist = make([]stat.LogNormal, nv)
	s.scale = make([]float64, nv)
	for k, v := range cfg.Grid.Vias {
		s.i0[k] = math.Abs(op.ResistorCurrent(v.ResistorIndex))
		model := cfg.Models[v.Pattern]
		s.dist[k], s.scale[k] = model.Dist, model.Scale(s.i0[k])
	}
	for i := 0; i < circuit.NumNodes(); i++ {
		if v := op.VoltageAt(i); circuit.IsPad(i) && v < s.padMin {
			s.padMin = v
		}
	}
	n := circuit.NumFree()
	s.y0 = make([]float64, n)
	if err := circuit.GatherFree(s.y0, op); err != nil {
		return nil, err
	}
	if err := s.SetCandidates(nil); err != nil {
		return nil, err
	}
	if cfg.Criterion != IRDrop {
		return s, nil
	}
	s.terms = make([]viaTerms, len(cfg.Grid.Vias))
	for k, v := range cfg.Grid.Vias {
		fa, fb, va, vb := circuit.ResistorTerms(v.ResistorIndex)
		g := circuit.ResistorConductance(v.ResistorIndex)
		s.terms[k] = viaTerms{fa: fa, fb: fb, va: va, vb: vb, g: g, r: 1 / g}
	}
	s.cache = newResponseCache(len(cfg.Grid.Vias), n, circuit.FactorNNZ())
	s.rankCap = cascadeRankCap(n, circuit.FactorNNZ())
	return s, nil
}

// Clone returns a system for another Monte-Carlo worker. It shares the
// receiver's pristine circuit, factor, operating point and response cache —
// all read-only during trials — and owns only fresh trial state, so a clone
// costs no circuit copy and produces bit-identical trials. Cloning only
// reads the receiver: concurrent clones of one master are safe.
func (s *GridSystem) Clone() *GridSystem {
	return &GridSystem{
		cfg:        s.cfg,
		circuit:    s.circuit,
		op0:        s.op0,
		i0:         s.i0,
		dist:       s.dist,
		scale:      s.scale,
		y0:         s.y0,
		padMin:     s.padMin,
		terms:      s.terms,
		cache:      s.cache,
		rankCap:    s.rankCap,
		met:        s.met,
		candidates: s.candidates, // write-once after SetCandidates
		masked:     s.masked,
	}
}

// NumComponents returns the via-array count.
func (s *GridSystem) NumComponents() int { return len(s.cfg.Grid.Vias) }

var _ mc.TrialPreparer = (*GridSystem)(nil)
var _ mc.CandidateMasker = (*GridSystem)(nil)

// subSeed derives the sampling substream seed of array k in a masked trial
// from the trial's base draw (splitmix-style mixing, as mc derives trial
// seeds from the run seed).
func subSeed(base int64, k int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmixSource is a rand.Source64 with O(1) reseeding (splitmix64). The
// masked sampling path reseeds once per candidate per trial; the stock
// math/rand source pays a 607-word state rebuild per Seed, which would cost
// more than the sampling it feeds. Reseeding this source is one store.
type splitmixSource struct{ s uint64 }

func (p *splitmixSource) Seed(seed int64) { p.s = uint64(seed) }

func (p *splitmixSource) Uint64() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *splitmixSource) Int63() int64 { return int64(p.Uint64() >> 1) }

// SetCandidates implements mc.CandidateMasker: it restricts the trials to
// the masked via arrays and switches TTF sampling to per-array substreams,
// so shrinking the mask never perturbs the sampled lifetimes of the arrays
// that remain. A nil mask makes every array a candidate again, sampled from
// the sequential stream.
func (s *GridSystem) SetCandidates(mask []bool) error {
	if mask != nil && len(mask) != s.NumComponents() {
		return fmt.Errorf("pdn: candidate mask has %d entries, want %d", len(mask), s.NumComponents())
	}
	var idx []int
	for k := range s.cfg.Grid.Vias {
		if mask == nil || mask[k] {
			idx = append(idx, k)
		}
	}
	if mask != nil && idx == nil {
		return fmt.Errorf("pdn: candidate mask excludes every via array")
	}
	s.candidates, s.masked = idx, mask != nil
	s.initTrialState()
	return nil
}

// initTrialState allocates the per-trial state with every array alive at its
// nominal current and, under a candidate mask, every TTF +Inf — the
// permanent state of the arrays outside the mask.
func (s *GridSystem) initTrialState() {
	n := s.NumComponents()
	if s.alive == nil {
		s.alive = make([]bool, n)
		s.baseTTF = make([]float64, n)
		s.iNow = make([]float64, n)
	}
	for k := range s.alive {
		s.alive[k] = true
		s.baseTTF[k] = math.Inf(1)
	}
	copy(s.iNow, s.i0)
}

// sampleTTF draws array k's TTF at its nominal current from src: the
// model's lognormal times its scale, then the local derating. An array
// carrying no current takes no draw.
func (s *GridSystem) sampleTTF(k int, src *rand.Rand) float64 {
	if math.IsInf(s.scale[k], 1) {
		return math.Inf(1)
	}
	ttf := s.dist[k].Sample(src) * s.scale[k]
	if s.cfg.TTFScale != nil {
		ttf *= s.cfg.TTFScale[k]
	}
	return ttf
}

// sampleTTFs draws a trial's candidate TTFs from the trial generator rng
// into baseTTF (entries outside the candidates are left alone). Unmasked, the
// arrays draw from rng in index order. Masked, exactly one base draw is taken
// from rng whatever the mask, and each candidate samples from its own
// substream seeded by (base, k), so the sampled TTF of an array depends only
// on (trial, array) — which is what makes screened runs mask-monotone.
func (s *GridSystem) sampleTTFs(rng *rand.Rand) {
	src := rng
	var base int64
	if s.masked {
		if s.sub == nil {
			s.sub = rand.New(new(splitmixSource))
		}
		base, src = rng.Int63(), s.sub
	}
	for _, k := range s.candidates {
		if s.masked {
			src.Seed(subSeed(base, k))
		}
		s.baseTTF[k] = s.sampleTTF(k, src)
	}
}

// BeginTrial restores the pristine grid and samples array TTFs at their
// nominal currents.
func (s *GridSystem) BeginTrial(rng *rand.Rand) error {
	if s.alive == nil {
		s.initTrialState()
	}
	s.casc.restart(s.y0, nil)
	s.failed = s.failed[:0]
	s.failedCount = 0
	for _, k := range s.candidates {
		s.alive[k] = true
		s.iNow[k] = s.i0[k]
	}
	s.sampleTTFs(rng)
	return nil
}

// PrepareTrials implements mc.TrialPreparer and does nothing. A trial
// solves each response it misses when it needs it and publishes it to the
// shared cache, so later trials read it. A prefill of each trial group's
// predicted first failures used to run here: on the ir-cascade benchmark it
// was no faster than solving on demand and held more memory. The method
// stays because the benchmark harness times it and requires the engine to
// call it.
func (s *GridSystem) PrepareTrials(seeds []int64) error { return nil }

// BaseTTF returns array k's sampled TTF.
func (s *GridSystem) BaseTTF(k int) float64 { return s.baseTTF[k] }

// AgingRate returns (I_now/I_0)² for array k.
func (s *GridSystem) AgingRate(k int) float64 {
	if !s.alive[k] || s.i0[k] <= 0 {
		return 0
	}
	r := s.iNow[k] / s.i0[k]
	return r * r
}

// Fail opens via array k and redistributes the grid currents. Under the
// weakest-link criterion the re-solve is skipped: the trial is already over.
func (s *GridSystem) Fail(k int) error {
	if !s.alive[k] {
		return fmt.Errorf("pdn: via array %d already failed", k)
	}
	s.alive[k] = false
	s.failedCount++
	if s.cfg.Criterion == WeakestLink {
		// The trial is already over; nothing reads the electrical state
		// before the next BeginTrial.
		return nil
	}
	s.failed = append(s.failed, k)
	x, err := s.open(k)
	if err != nil {
		return fmt.Errorf("pdn: re-solve after failing array %d: %w", k, err)
	}
	// Arrays outside a mask are never scheduled: their aging rate is never
	// read.
	for _, i := range s.candidates {
		s.updateCurrent(i, x)
	}
	return nil
}

// updateCurrent refreshes array i's present current from the free-node
// solution x, with the arithmetic of spice.OP.ResistorCurrent: voltage drop
// times stamped conductance. Failed arrays carry none.
func (s *GridSystem) updateCurrent(i int, x []float64) {
	if s.alive[i] {
		t := s.terms[i]
		s.iNow[i] = math.Abs(t.drop(x) * t.g)
	} else {
		s.iNow[i] = 0
	}
}

// Failed evaluates the system criterion.
func (s *GridSystem) Failed() (bool, error) {
	switch s.cfg.Criterion {
	case WeakestLink:
		return s.failedCount >= 1, nil
	case IRDrop:
		return s.WorstIRDropFrac() >= s.cfg.IRDropFrac, nil
	}
	return false, fmt.Errorf("pdn: unknown criterion %d", int(s.cfg.Criterion))
}

// ComponentLabel names via array k by its pattern and mesh position, e.g.
// "Plus-shaped(3,4)" (mc.ComponentLabeler — trace output only).
func (s *GridSystem) ComponentLabel(k int) string {
	v := s.cfg.Grid.Vias[k]
	return fmt.Sprintf("%s(%d,%d)", v.Pattern, v.IX, v.IY)
}

// FailedCount returns the number of failed arrays in the current trial.
func (s *GridSystem) FailedCount() int { return s.failedCount }

// WorstIRDropFrac returns the worst IR drop of the trial's present state as a
// fraction of Vdd, 0 before the first BeginTrial. The lowest node voltage is
// the least of the free-node solution and the least pad voltage: the value
// spice.OP.MinVoltage would return for the solution scattered into an
// operating point, without building one.
func (s *GridSystem) WorstIRDropFrac() float64 {
	x := s.casc.solution()
	if x == nil {
		return 0
	}
	v := s.padMin
	for _, xi := range x {
		if xi < v {
			v = xi
		}
	}
	vdd := s.cfg.Grid.Spec.Vdd
	return (vdd - v) / vdd
}

// Analyze runs the grid level of the flow (Algorithm 1, step 2) with the
// engine opt.Engine names (mc.ParseEngine; "" is mc). The context's timeline
// gets one span per stage, and the context bounds the Monte Carlo.
//
//   - mc compiles and factors one master system and runs the Monte Carlo over
//     clones of it. Stages: compile, factorize, mc.
//   - steady solves the pristine grid and runs the linear-time steady-state
//     screen (arXiv 2112.13451). It reads only cfg.Grid and returns a nil
//     result. Stages: compile, factorize, screen.
//   - both screens the master's pristine solve and runs the Monte Carlo over
//     the mortal via arrays only. A failure outside the mortal set means the
//     screen's conservatism broke, so it returns the result and the screen
//     together with an error. Stages: compile, factorize, screen, mc.
//
// The Monte Carlo runs opt as given (both replaces Candidates with the
// screen's mask), with an empty TraceLabel set to "grid:"+Criterion. Workers
// sets the worker budget and FirstTrial the trial-range offset of a
// distributed shard; results are bit-identical for any budget and any shard
// partition thanks to mc's per-trial seed splitting.
func Analyze(ctx context.Context, cfg TTFConfig, sc ScreenConfig, opt mc.Options) (*mc.Result, *GridScreen, error) {
	engine, err := mc.ParseEngine(opt.Engine)
	if err != nil {
		return nil, nil, err
	}
	tl := trace.TimelineFrom(ctx)
	if engine == mc.EngineSteady {
		if cfg.Grid == nil {
			return nil, nil, fmt.Errorf("pdn: the steady engine needs a grid")
		}
		circuit, op, err := cfg.Grid.pristine(trace.TimelineFrom(ctx))
		if err != nil {
			return nil, nil, err
		}
		defer tl.Stage("screen")()
		screen, err := screenGrid(cfg.Grid, circuit, op, sc)
		return nil, screen, err
	}
	master, err := NewSystemCtx(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	opt.Engine = engine
	if opt.TraceLabel == "" {
		opt.TraceLabel = "grid:" + cfg.Criterion.String()
	}
	var screen *GridScreen
	if engine == mc.EngineBoth {
		endScreen := tl.Stage("screen")
		screen, err = master.SteadyScreen(sc)
		endScreen()
		if err != nil {
			return nil, nil, err
		}
		if screen.MortalVias == 0 {
			return nil, screen, fmt.Errorf("pdn: steady screen classified every via array immortal; nothing for the Monte Carlo to simulate (criterion %s)", cfg.Criterion)
		}
		opt.Candidates = screen.CandidateMask()
	}
	endMC := tl.Stage("mc")
	res, err := mc.RunParallelCtx(ctx, func() (mc.System, error) {
		return master.Clone(), nil
	}, opt)
	endMC()
	if err != nil {
		return nil, screen, err
	}
	if screen != nil {
		if miss := res.MaskMisses(screen.ViaMortal); len(miss) > 0 {
			return res, screen, fmt.Errorf("pdn: screened run observed %d failure(s) outside the steady mortal set (first: via array %d)", len(miss), miss[0])
		}
	}
	return res, screen, nil
}
