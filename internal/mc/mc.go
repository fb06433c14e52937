// Package mc implements Algorithm 1 of the DAC'17 paper: Monte-Carlo
// simulation of sequential EM failures in a redundant system. The same
// engine runs at both hierarchy levels — vias inside a via array, and via
// arrays inside a power grid — through the System interface.
//
// Each trial samples a base TTF for every component at its trial-start
// current, then repeatedly fails the component with the least remaining
// life. Failing a component redistributes current, which accelerates the
// survivors; the engine models this with damage accumulation: component i
// fails when its accumulated damage ∫ rate_i(t)·dt reaches its base TTF,
// where rate_i is the system-reported relative aging rate (1 at trial
// start, (j_new/j_0)² after redistribution, per the TTF ∝ 1/j² scaling of
// the nucleation model).
//
// Run and RunParallel drive the same worker body: Run calls it once on the
// calling goroutine with the caller's system, RunParallel starts it in each
// of its worker goroutines. Either way every trial runs the same scan over
// the candidate list — every component, or a steady screen's mortal subset —
// so a result does not depend on the entry point or the worker count.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"emvia/internal/trace"
)

// System is a redundant system analyzed by Algorithm 1. Implementations are
// stateful: BeginTrial resets electrical state, Fail mutates it.
type System interface {
	// NumComponents returns the number of failable components.
	NumComponents() int
	// BeginTrial resets the system and samples fresh component TTFs.
	BeginTrial(rng *rand.Rand) error
	// BaseTTF returns component i's sampled TTF in seconds under its
	// trial-start conditions. May be 0 (immediately feasible void) or +Inf
	// (no EM stress on this component). It is fixed for the trial: the
	// engine reads it once per component right after BeginTrial.
	BaseTTF(i int) float64
	// AgingRate returns the current relative damage rate of surviving
	// component i: 1 at trial start, rising when the component inherits
	// current from failed neighbours. It changes only through Fail: the
	// engine's scan reads each survivor's rate once per failure and reuses
	// it until the next Fail.
	AgingRate(i int) float64
	// Fail marks component i failed and updates the electrical state
	// (resistance change, current redistribution).
	Fail(i int) error
	// Failed reports whether the system-level failure criterion is
	// breached in the current state.
	Failed() (bool, error)
}

// TrialPreparer is optionally implemented by Systems that can precompute
// state shared by a group of upcoming trials. The engine calls PrepareTrials with the seeds of the next trialGroup
// consecutive trials right before running them (in order, on the same
// system instance), so an implementation may key its precomputation to the
// seeds and serve it back during BeginTrial/Fail. Preparation must not
// change the observable trial results: it is an amortization hook, not a
// semantic one.
type TrialPreparer interface {
	// PrepareTrials precomputes for the trials seeded by seeds, replacing
	// any previously prepared state.
	PrepareTrials(seeds []int64) error
}

// trialGroup is the number of consecutive trials a worker claims at once,
// and hands to a TrialPreparer ahead of running them. Group boundaries
// depend only on the trial index, never on the worker count, so results
// stay bit-identical for any worker budget.
const trialGroup = 16

// Engine names an analysis backend selected by the -engine flag. The
// Monte-Carlo engine only ever runs EngineMC and EngineBoth configurations;
// EngineSteady is the screening-only backend, which pdn.Analyze runs without
// a Monte Carlo.
const (
	EngineMC     = "mc"
	EngineSteady = "steady"
	EngineBoth   = "both"
)

// ParseEngine validates an -engine flag value, mapping "" to EngineMC.
func ParseEngine(s string) (string, error) {
	switch s {
	case "", EngineMC:
		return EngineMC, nil
	case EngineSteady, EngineBoth:
		return s, nil
	}
	return "", fmt.Errorf("mc: unknown engine %q (want mc, steady or both)", s)
}

// CandidateMasker is optionally implemented by Systems that understand a
// candidate mask natively: SetCandidates is called once before any trial
// when Options.Candidates is set. A masking system must switch its TTF
// sampling to the per-component substream contract — one base draw from the
// trial generator, then an independent generator seeded by mixing the base
// with the component index for each candidate — so that shrinking the mask
// never perturbs the random stream of the components that remain. Systems
// without the interface still run correctly under a mask (the engine skips
// non-candidates itself) but must not be compared bit-for-bit across masks.
type CandidateMasker interface {
	// SetCandidates installs the mask (len == NumComponents, true =
	// failure candidate). The slice is shared and must not be mutated.
	SetCandidates(mask []bool) error
}

// Options configures a Monte-Carlo run.
type Options struct {
	// Trials is the number of Monte-Carlo trials (paper: N_trials = 500).
	Trials int
	// Seed makes the run reproducible; trial t derives its own generator
	// from Seed and t, so results do not depend on scheduling.
	Seed int64
	// FirstTrial offsets the run into a larger trial sequence: the run
	// executes trials [FirstTrial, FirstTrial+Trials) of the sequence seeded
	// by Seed, with local result index i holding global trial FirstTrial+i.
	// Because trial t always derives its generator from trialSeed(Seed, t)
	// regardless of which run executes it, a set of runs whose ranges tile
	// [0, N) reproduces, trial for trial, exactly the bits a single
	// [0, N) run would — the contract distributed shard execution merges on.
	// 0 (the default) is the whole-range run.
	FirstTrial int
	// RunToCompletion keeps failing components after the system criterion
	// fires, recording every failure event. Used by via-array
	// characterization, which extracts all n_F criteria from one run.
	RunToCompletion bool
	// Workers bounds the number of worker goroutines of RunParallel; zero
	// selects runtime.GOMAXPROCS(0), negative values are rejected by
	// Validate. Results are bit-identical for any value thanks to per-trial
	// seeding.
	Workers int
	// TraceLabel names this run in structured traces (see internal/trace);
	// empty selects "mc".
	TraceLabel string
	// Engine names the analysis backend (ParseEngine: "mc", "steady" or
	// "both"; empty = mc). pdn.Analyze reads it to choose between the full
	// Monte Carlo, the steady screen alone and the screened Monte Carlo. To
	// Run and RunParallel it is provenance, not behavior: they accept only
	// mc and both, and the pruning itself rides on Candidates.
	Engine string
	// Candidates restricts each trial to a subset of failure candidates
	// (len == NumComponents, true = candidate): non-candidates are never
	// sampled, scanned or failed, the screening contract of the steady
	// engine. Nil — the default — makes every component a candidate. The
	// slice is shared across workers read-only.
	Candidates []bool
}

// Validate rejects impossible option values: Trials must be ≥ 1 and Workers
// ≥ 0 (0 = one worker per CPU). Both fields are ints, so NaN or fractional
// counts are unrepresentable here by construction — flag/config parsing
// rejects them before an Options can be built. Run and RunParallel call
// Validate themselves.
func (o Options) Validate() error {
	if o.Trials < 1 {
		return fmt.Errorf("mc: Trials must be ≥ 1, got %d", o.Trials)
	}
	if o.Workers < 0 {
		return fmt.Errorf("mc: Workers must be ≥ 0 (0 = one per CPU), got %d", o.Workers)
	}
	if o.FirstTrial < 0 {
		return fmt.Errorf("mc: FirstTrial must be ≥ 0, got %d", o.FirstTrial)
	}
	switch o.Engine {
	case "", EngineMC, EngineBoth:
	default:
		return fmt.Errorf("mc: engine %q cannot drive a Monte-Carlo run (want mc or both)", o.Engine)
	}
	if o.Candidates != nil {
		any := false
		for _, c := range o.Candidates {
			if c {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("mc: Candidates masks out every component; nothing to simulate")
		}
	}
	return nil
}

// candidateIdx resolves the candidate mask against a system: it validates
// the length, installs the mask on CandidateMasker systems, and returns the
// ascending candidate index list the trial loop scans — every component
// when there is no mask.
func candidateIdx(sys System, opt Options) ([]int, error) {
	n := sys.NumComponents()
	if opt.Candidates != nil {
		if len(opt.Candidates) != n {
			return nil, fmt.Errorf("mc: Candidates has %d entries for %d components", len(opt.Candidates), n)
		}
		if cm, ok := sys.(CandidateMasker); ok {
			if err := cm.SetCandidates(opt.Candidates); err != nil {
				return nil, fmt.Errorf("mc: installing candidate mask: %w", err)
			}
		}
	}
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if opt.Candidates == nil || opt.Candidates[i] {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// traceLabel returns the run name for structured traces.
func (o Options) traceLabel() string {
	if o.TraceLabel != "" {
		return o.TraceLabel
	}
	return "mc"
}

// ComponentLabeler is optionally implemented by Systems that can name their
// components for trace output (e.g. "Plus-shaped(3,4)" for a via, or a grid
// array's position). Labels appear in trace fail events, asked for only
// where the tracer keeps them (trace.Labeler); they never feed back into the
// simulation.
type ComponentLabeler interface {
	// ComponentLabel returns a human-readable identity for component i.
	ComponentLabel(i int) string
}

// Result collects the per-trial outcomes.
type Result struct {
	// TTF is the per-trial system failure time in seconds (+Inf when the
	// criterion never fired).
	TTF []float64
	// Events[t] lists the component-failure times of trial t in
	// chronological order (all events when RunToCompletion, else the
	// events up to and including system failure).
	Events [][]float64
	// EventComps[t] lists the component index of each failure of trial t,
	// parallel to Events[t]. Used for criticality ranking: which
	// components actually precipitate system failure.
	EventComps [][]int
}

// FiniteTTF returns the finite system TTFs (dropping never-failed trials).
func (r *Result) FiniteTTF() []float64 {
	out := make([]float64, 0, len(r.TTF))
	for _, t := range r.TTF {
		if !math.IsInf(t, 1) {
			out = append(out, t)
		}
	}
	return out
}

// KthFailureTimes returns the time of the k-th component failure (1-based)
// in each trial that reached k failures. Requires RunToCompletion for
// complete data.
func (r *Result) KthFailureTimes(k int) []float64 {
	var out []float64
	for _, ev := range r.Events {
		if k >= 1 && k <= len(ev) {
			out = append(out, ev[k-1])
		}
	}
	return out
}

// FirstFailureCounts tallies, per component, how many trials it was the
// first to fail — the weakest-link criticality ranking a designer uses to
// decide which components to upsize.
func (r *Result) FirstFailureCounts(numComponents int) []int {
	counts := make([]int, numComponents)
	for _, comps := range r.EventComps {
		if len(comps) > 0 && comps[0] >= 0 && comps[0] < numComponents {
			counts[comps[0]]++
		}
	}
	return counts
}

// FailureInvolvement tallies, per component, how many trials it failed at
// any point before (or at) system failure.
func (r *Result) FailureInvolvement(numComponents int) []int {
	counts := make([]int, numComponents)
	for _, comps := range r.EventComps {
		for _, c := range comps {
			if c >= 0 && c < numComponents {
				counts[c]++
			}
		}
	}
	return counts
}

// MaskMisses returns every component that failed in some trial despite not
// being in mask — the screening soundness check of the steady engine: a
// non-empty return from an unscreened run means the mortal classification
// missed a component the Monte Carlo observed failing.
func (r *Result) MaskMisses(mask []bool) []int {
	var misses []int
	seen := make(map[int]bool)
	for _, comps := range r.EventComps {
		for _, c := range comps {
			if c >= 0 && c < len(mask) && !mask[c] && !seen[c] {
				seen[c] = true
				misses = append(misses, c)
			}
		}
	}
	return misses
}

// trialSeed decorrelates per-trial generators.
func trialSeed(seed int64, trial int) int64 {
	x := uint64(seed) + uint64(trial)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// Run executes the Monte-Carlo loop on one system instance: RunParallel's
// worker body, called once on the calling goroutine with sys, so a System
// may end the run from inside its methods with runtime.Goexit (testing's
// t.Fatal).
func Run(sys System, opt Options) (*Result, error) {
	return run(context.Background(), opt, 1, func() (System, error) { return sys, nil })
}

// RunParallel executes trials across workers, each with its own System from
// the factory. Results are identical to Run thanks to per-trial seeding.
func RunParallel(newSys func() (System, error), opt Options) (*Result, error) {
	return RunParallelCtx(context.Background(), newSys, opt)
}

// RunParallelCtx is RunParallel with cancellation: every worker checks the
// context between trials, so a deadline or cancel drains the pool within one
// trial's wall time per worker. The returned error wraps ctx.Err() unless a
// trial failed first (the first failure of any kind wins).
func RunParallelCtx(ctx context.Context, newSys func() (System, error), opt Options) (*Result, error) {
	return run(ctx, opt, opt.Workers, newSys)
}

// run validates opt, then runs the worker body over up to workers systems
// from newSys (0 = one per CPU). A single worker runs on the calling
// goroutine.
func run(ctx context.Context, opt Options, workers int, newSys func() (System, error)) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if groups := (opt.Trials + trialGroup - 1) / trialGroup; workers > groups {
		workers = groups
	}
	d := &dispatch{ctx: ctx, opt: opt, met: newRunMetrics(), res: &Result{
		TTF:        make([]float64, opt.Trials),
		Events:     make([][]float64, opt.Trials),
		EventComps: make([][]int, opt.Trials),
	}}
	d.run = trace.Default().BeginRun(opt.traceLabel(), opt.Trials)
	defer d.run.End()
	t0 := d.met.runSeconds.Start()
	if workers == 1 {
		d.work(newSys)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.work(newSys)
			}()
		}
		wg.Wait()
	}
	d.met.runSeconds.ObserveSince(t0)
	// Every worker has returned, which orders every once.Do before this
	// read; no lock needed.
	if d.firstErr != nil {
		return nil, d.firstErr
	}
	return d.res, nil
}

// dispatch is the state the workers of one run share. Trial dispatch is a
// lock-free atomic fetch-add over whole trial groups — workers never contend
// on a mutex in the hot loop. Errors are confined to a sync.Once (the first
// one wins) plus a stop flag that drains the remaining workers.
type dispatch struct {
	ctx      context.Context
	opt      Options
	met      runMetrics // run-level handles: runSeconds and the mask split
	res      *Result
	run      *trace.Run
	next     atomic.Int64 // groups claimed
	done     atomic.Int64 // trials finished, for progress ticks
	stop     atomic.Bool
	once     sync.Once
	maskOnce sync.Once
	firstErr error
}

func (d *dispatch) fail(err error) {
	d.once.Do(func() { d.firstErr = err })
	d.stop.Store(true)
}

// work is the worker body: it builds a system, resolves the candidate mask
// against it, then claims trial groups until none are left. The group →
// trial mapping is a pure function of the options, so a preparer system sees
// exactly the same groups whichever worker claims each.
func (d *dispatch) work(newSys func() (System, error)) {
	opt := d.opt
	sys, err := newSys()
	if err != nil {
		d.fail(err)
		return
	}
	idxs, err := candidateIdx(sys, opt)
	if err != nil {
		d.fail(err)
		return
	}
	if opt.Candidates != nil {
		d.maskOnce.Do(func() { d.met.observeMask(len(opt.Candidates), len(idxs)) })
	}
	// One generator and one scratch buffer set serve every trial the worker
	// runs: reseeding with the per-trial seed reproduces exactly the stream
	// a fresh generator would, so the loop stops allocating. The source
	// defers math/rand's seeding to a trial's second draw (trialSource).
	rng := rand.New(newTrialSource())
	var scratch trialScratch
	met := newRunMetrics()
	labeler, _ := sys.(ComponentLabeler)
	preparer, _ := sys.(TrialPreparer)
	var seeds []int64
	for !d.stop.Load() {
		g0 := (int(d.next.Add(1)) - 1) * trialGroup
		if g0 >= opt.Trials {
			return
		}
		g1 := min(g0+trialGroup, opt.Trials)
		if preparer != nil {
			seeds = seeds[:0]
			for t := g0; t < g1; t++ {
				seeds = append(seeds, trialSeed(opt.Seed, opt.FirstTrial+t))
			}
			if err := preparer.PrepareTrials(seeds); err != nil {
				d.fail(fmt.Errorf("mc: preparing trials %d..%d: %w", g0, g1-1, err))
				return
			}
		}
		for t := g0; t < g1; t++ {
			if err := d.ctx.Err(); err != nil {
				d.fail(fmt.Errorf("mc: canceled at trial %d of %d: %w", t, opt.Trials, err))
				return
			}
			rng.Seed(trialSeed(opt.Seed, opt.FirstTrial+t))
			ttf, events, comps, err := runTrial(sys, rng, opt.RunToCompletion, idxs, &scratch, &met, d.run.Trial(t).Labeled(labeler))
			if err != nil {
				d.fail(fmt.Errorf("mc: trial %d: %w", t, err))
				return
			}
			d.res.TTF[t] = ttf
			d.res.Events[t] = events
			d.res.EventComps[t] = comps
			if met.reg != nil {
				met.reg.ProgressTick("mc", d.done.Add(1), int64(opt.Trials))
			}
		}
	}
}

// trialScratch holds the per-trial buffers a worker reuses across the trials
// it runs, keeping the scheduling loop allocation-free: damage and liveness,
// each candidate's base TTF (read once per trial), and the aging rates the
// latest argmin scan read, which the damage pass that follows reuses.
type trialScratch struct {
	damage, base, rates []float64
	alive               []bool
}

func (s *trialScratch) reserve(n int) {
	if cap(s.damage) < n {
		s.damage = make([]float64, n)
		s.base = make([]float64, n)
		s.rates = make([]float64, n)
		s.alive = make([]bool, n)
	}
	s.damage = s.damage[:n]
	s.base = s.base[:n]
	s.rates = s.rates[:n]
	s.alive = s.alive[:n]
}

// runTrial performs one sequential-failure trial over the ascending
// candidate index list idxs: only listed components are sampled, scanned
// and failed, which is what turns a mortal-subset mask into wall-clock
// savings on large systems, and an unmasked run lists every component. tt is
// the trial's trace recorder (the zero value when tracing is off), strictly
// observational; it names failed components through the system's
// ComponentLabeler when it keeps their labels.
func runTrial(sys System, rng *rand.Rand, toCompletion bool, idxs []int, scratch *trialScratch, met *runMetrics, tt trace.Trial) (systemTTF float64, events []float64, comps []int, err error) {
	trial0 := met.trialSeconds.Start()
	if err := sys.BeginTrial(rng); err != nil {
		return 0, nil, nil, fmt.Errorf("BeginTrial: %w", err)
	}
	n := sys.NumComponents()
	tt.Begin(n)
	scratch.reserve(n)
	damage, base, rates, alive := scratch.damage, scratch.base, scratch.rates, scratch.alive
	// A worker's scratch serves one run, hence one candidate list: entries
	// outside it keep the zero damage and false liveness of the allocation,
	// so only the candidates need resetting.
	for _, i := range idxs {
		damage[i] = 0
		base[i] = sys.BaseTTF(i)
		alive[i] = true
		tt.Sample(i, base[i])
	}
	now := 0.0
	systemTTF = math.Inf(1)
	systemFailed := false
	// A traced Fail's Redistribute event summarizes the survivors' rates
	// after it. The next argmin scan reads exactly those rates, so it
	// summarizes them on the way; only a SpecViolation, which must follow
	// the Redistribute, scans for it explicitly. A trial whose loop runs
	// out has failed every candidate, and no survivor means no event.
	pending := false
	traced := tt.Enabled()

	for remaining := len(idxs); remaining > 0; remaining-- {
		// Find the component with the least remaining life.
		minDt := math.Inf(1)
		minIdx := -1
		var sum rateSummary
		for _, i := range idxs {
			if !alive[i] {
				continue
			}
			rate := sys.AgingRate(i)
			if rate < 0 || math.IsNaN(rate) {
				return 0, nil, nil, fmt.Errorf("component %d: invalid aging rate %g", i, rate)
			}
			rates[i] = rate
			if traced {
				sum.add(i, rate)
			}
			left := base[i] - damage[i]
			if left < 0 {
				left = 0
			}
			var dt float64
			switch {
			case rate == 0:
				dt = math.Inf(1)
			default:
				dt = left / rate
			}
			if dt < minDt {
				minDt = dt
				minIdx = i
			}
		}
		if pending {
			sum.emit(tt, now)
			pending = false
		}
		if minIdx < 0 || math.IsInf(minDt, 1) {
			// No candidate can ever fail; the system survives forever.
			break
		}
		// Advance time and accumulate damage on survivors, at the rates the
		// scan just read: nothing has changed the system since.
		now += minDt
		for _, i := range idxs {
			if alive[i] {
				damage[i] += minDt * rates[i]
			}
		}
		alive[minIdx] = false
		// The Fail call is the redistribution step: it mutates the electrical
		// state and re-solves, which dominates a trial's wall time.
		fail0 := met.failSeconds.Start()
		if err := sys.Fail(minIdx); err != nil {
			return 0, nil, nil, fmt.Errorf("Fail(%d): %w", minIdx, err)
		}
		met.failSeconds.ObserveSince(fail0)
		events = append(events, now)
		comps = append(comps, minIdx)
		if traced {
			tt.Fail(now, minIdx, "")
			pending = true
		}

		if !systemFailed {
			failed, err := sys.Failed()
			if err != nil {
				return 0, nil, nil, fmt.Errorf("Failed check: %w", err)
			}
			if failed {
				systemFailed = true
				systemTTF = now
				if pending {
					summarize(sys, idxs, alive).emit(tt, now)
					pending = false
				}
				tt.SpecViolation(now, len(events))
				if !toCompletion {
					break
				}
			}
		}
	}
	met.trials.Inc()
	met.failuresPerTrial.Observe(float64(len(events)))
	met.trialSeconds.ObserveSince(trial0)
	tt.End(systemTTF, len(events))
	return systemTTF, events, comps, nil
}

// rateSummary accumulates the survivors' aging rates for a trace
// Redistribute event: their count, sum and largest rate with its first
// component (none while every rate is 0).
type rateSummary struct {
	max, sum  float64
	argmax, n int
}

func (r *rateSummary) add(i int, rate float64) {
	r.n++
	r.sum += rate
	if rate > r.max {
		r.max, r.argmax = rate, i
	}
}

// emit records the summary as the Redistribute event at time now; a
// redistribution that leaves no survivors records none.
func (r rateSummary) emit(tt trace.Trial, now float64) {
	if r.n == 0 {
		return
	}
	comp := r.argmax
	if r.max == 0 {
		comp = -1
	}
	tt.Redistribute(now, r.max, comp, r.sum/float64(r.n), r.n)
}

// summarize scans the survivors' present aging rates, for a Redistribute
// event that cannot wait for the next argmin scan.
func summarize(sys System, idxs []int, alive []bool) rateSummary {
	var r rateSummary
	for _, i := range idxs {
		if alive[i] {
			r.add(i, sys.AgingRate(i))
		}
	}
	return r
}
