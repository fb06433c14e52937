package pdn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/solver"
	"emvia/internal/spice"
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
	// PerViaModels optionally overrides Models with one TTF model per via
	// array (g.Vias order) — the hook for multi-layer grids where each
	// array's model depends on its layer pair as well as its pattern.
	PerViaModels []viaarray.TTFModel
}

// Validate checks the configuration against the grid.
func (c TTFConfig) Validate() error {
	if c.Grid == nil {
		return fmt.Errorf("pdn: TTFConfig needs a grid")
	}
	if c.PerViaModels != nil {
		if len(c.PerViaModels) != len(c.Grid.Vias) {
			return fmt.Errorf("pdn: PerViaModels has %d entries, want %d", len(c.PerViaModels), len(c.Grid.Vias))
		}
		for k, m := range c.PerViaModels {
			if m.RefCurrent <= 0 {
				return fmt.Errorf("pdn: PerViaModels[%d] has non-positive reference current", k)
			}
		}
	} else {
		for pat := range c.Grid.PatternCounts() {
			if _, ok := c.Models[pat]; !ok {
				return fmt.Errorf("pdn: no TTF model for %v via arrays", pat)
			}
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
// a trial that outgrows the update rebases on a private refactored copy.
type GridSystem struct {
	cfg TTFConfig

	// Shared by a master and its clones; never written once NewSystem
	// returns (the cache publishes write-once entries).
	circuit *spice.Circuit
	op0     *spice.OP  // pristine operating point
	i0      []float64  // pristine per-array current magnitudes
	y0      []float64  // pristine free-node solution (IR-drop only)
	terms   []viaTerms // per-array edit vector (IR-drop only)
	cache   *responseCache
	// rankCap is the update rank at which a trial rebases (cascadeRankCap);
	// tests lower it to force rebases.
	rankCap int
	met     cascadeMetrics

	alive       []bool
	baseTTF     []float64
	iNow        []float64
	opNow       *spice.OP
	failedCount int
	failed      []int // arrays opened so far in this trial, in order

	// Two spare operating points double-buffer the post-failure states
	// inside a trial: Fail always writes the spare opNow does not occupy,
	// so op0 is never overwritten and the inner loop allocates nothing.
	opA, opB *spice.OP

	casc cascade
	ws   solver.Workspace // this instance's solve scratch
	rhs  []float64        // response right-hand sides, all zero between uses

	// candidates is the ascending index list of the steady screen's mortal
	// mask (mc.CandidateMasker); nil runs the legacy sequential sampling
	// stream. With a mask set, BeginTrial draws one base seed per trial and
	// samples each candidate from its own derived substream, so the sampled
	// TTF of a via array depends only on (trial, array) — never on which
	// other arrays are in the mask. Arrays outside the mask never fail: their
	// +Inf TTF, liveness and nominal current are written once (initTrialState)
	// and every per-trial pass walks the candidates only. sub is the reusable
	// substream generator.
	candidates []int
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
	s := &GridSystem{cfg: cfg, circuit: circuit, op0: op, met: newCascadeMetrics()}
	s.i0 = make([]float64, len(cfg.Grid.Vias))
	for k, v := range cfg.Grid.Vias {
		s.i0[k] = math.Abs(op.ResistorCurrent(v.ResistorIndex))
	}
	if cfg.Criterion != IRDrop {
		return s, nil
	}
	n := circuit.NumFree()
	s.y0 = make([]float64, n)
	if err := circuit.GatherFree(s.y0, op); err != nil {
		return nil, err
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
		y0:         s.y0,
		terms:      s.terms,
		cache:      s.cache,
		rankCap:    s.rankCap,
		met:        s.met,
		candidates: s.candidates, // write-once after SetCandidates
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
// that remain. A nil mask restores the legacy sequential stream.
func (s *GridSystem) SetCandidates(mask []bool) error {
	if mask == nil {
		s.candidates = nil
		return nil
	}
	if len(mask) != s.NumComponents() {
		return fmt.Errorf("pdn: candidate mask has %d entries, want %d", len(mask), s.NumComponents())
	}
	var idx []int
	for k, m := range mask {
		if m {
			idx = append(idx, k)
		}
	}
	if idx == nil {
		return fmt.Errorf("pdn: candidate mask excludes every via array")
	}
	s.candidates = idx
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

// sampleTTF draws array k's TTF at its nominal current from src.
func (s *GridSystem) sampleTTF(k int, src *rand.Rand) float64 {
	var model viaarray.TTFModel
	if s.cfg.PerViaModels != nil {
		model = s.cfg.PerViaModels[k]
	} else {
		model = s.cfg.Models[s.cfg.Grid.Vias[k].Pattern]
	}
	ttf := model.Sample(src, s.i0[k])
	if s.cfg.TTFScale != nil {
		ttf *= s.cfg.TTFScale[k]
	}
	return ttf
}

// ensureSub returns the reusable substream generator.
func (s *GridSystem) ensureSub() *rand.Rand {
	if s.sub == nil {
		s.sub = rand.New(new(splitmixSource))
	}
	return s.sub
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
	s.opNow = s.op0
	if s.candidates == nil {
		for k := range s.alive {
			s.alive[k] = true
		}
		copy(s.iNow, s.i0)
		for k := range s.baseTTF {
			s.baseTTF[k] = s.sampleTTF(k, rng)
		}
	} else {
		// Masked sampling: one base draw from the trial stream, then an
		// independent substream per candidate. Exactly one draw is taken
		// from rng whatever the mask, and substream seeds depend only on
		// (base, k), which is what makes screened runs mask-monotone.
		base := rng.Int63()
		sub := s.ensureSub()
		for _, k := range s.candidates {
			s.alive[k] = true
			s.iNow[k] = s.i0[k]
			sub.Seed(subSeed(base, k))
			s.baseTTF[k] = s.sampleTTF(k, sub)
		}
	}
	return nil
}

// PrepareTrials implements mc.TrialPreparer: ahead of a trial group it
// replays each trial's TTF sampling from its seed, predicts the trial's
// first failure — the strict argmin of sampled TTF over arrays carrying
// current, exactly the engine's first scheduling decision — and solves the
// pristine responses of the group's uncached predictions into the shared
// cache in one batched multi-RHS sweep. A wrong prediction costs only a
// cache miss at the first failure. Weakest-link trials never re-solve, so
// there is nothing to prepare.
func (s *GridSystem) PrepareTrials(seeds []int64) error {
	if s.cfg.Criterion == WeakestLink {
		return nil
	}
	var ks []int
	rng := rand.New(rand.NewSource(0))
	for _, seed := range seeds {
		rng.Seed(seed)
		// Mirror BeginTrial's sampling stream exactly — the legacy sequential
		// draws, or the masked base-draw-plus-substreams — same draw order,
		// same scaling, so the predicted argmin is the one the engine will
		// pick.
		var base int64
		var sub *rand.Rand
		if s.candidates != nil {
			base = rng.Int63()
			sub = s.ensureSub()
		}
		minTTF := math.Inf(1)
		k := -1
		consider := func(i int, src *rand.Rand) {
			if ttf := s.sampleTTF(i, src); s.i0[i] > 0 && ttf < minTTF {
				minTTF = ttf
				k = i
			}
		}
		if s.candidates == nil {
			for i := range s.cfg.Grid.Vias {
				consider(i, rng)
			}
		}
		for _, i := range s.candidates {
			sub.Seed(subSeed(base, i))
			consider(i, sub)
		}
		if k >= 0 && !math.IsInf(minTTF, 1) && !s.terms[k].pinned() && s.cache.get(k) == nil {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	ks = slices.Compact(ks)
	return s.fillResponses(ks)
}

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
	dst := s.spareOP()
	x, err := s.open(k, dst)
	if err != nil {
		return fmt.Errorf("pdn: re-solve after failing array %d: %w", k, err)
	}
	s.opNow = dst
	if s.candidates == nil {
		for i := range s.cfg.Grid.Vias {
			s.updateCurrent(i, x)
		}
	}
	// Arrays outside the mask are never scheduled: their aging rate is
	// never read.
	for _, i := range s.candidates {
		s.updateCurrent(i, x)
	}
	return nil
}

// spareOP returns the operating point opNow does not occupy, allocating the
// pair on first use.
func (s *GridSystem) spareOP() *spice.OP {
	if s.opA == nil {
		s.opA, s.opB = s.circuit.NewOP(), s.circuit.NewOP()
	}
	if s.opNow == s.opA {
		return s.opB
	}
	return s.opA
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
		if s.opNow == nil {
			return false, nil
		}
		return s.opNow.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd) >= s.cfg.IRDropFrac, nil
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

// WorstIRDropFrac exposes the current worst IR drop (for tests/diagnostics).
func (s *GridSystem) WorstIRDropFrac() float64 {
	if s.opNow == nil {
		return 0
	}
	return s.opNow.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd)
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
