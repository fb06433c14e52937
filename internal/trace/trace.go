// Package trace is the second observability layer of the pipeline,
// complementing package telemetry's aggregate counters with *structure*: a
// low-overhead, deterministic record of every failure cascade the Monte-Carlo
// engine simulates (trial begin/end, per-component TTF samples, failures with
// time and component identity, current-redistribution summaries, spec
// violations). Wall-clock stage timing lives elsewhere: process-wide totals
// in telemetry histograms, per-job stages in a Timeline.
//
// The design constraints mirror telemetry's:
//
//   - Off means off. The process-wide tracer is an atomic pointer that is nil
//     until a CLI opts in (-trace / -trace-chrome / -http). A nil *Tracer and
//     the zero Trial recorder are valid no-ops, so instrumented code records
//     unconditionally.
//   - Strictly observational: no traced value feeds back into a computation,
//     so paper metrics are bit-identical with tracing on or off.
//   - Deterministic: cascade events carry only simulated time and component
//     identity, never wall-clock data, and each trial's events are buffered
//     in a per-trial slot owned by exactly one worker. The merged stream
//     (trial order, then within-trial record order) is therefore byte-
//     identical between mc.Run and mc.RunParallel at any worker count, and
//     between two identical runs. The tracer never reads the clock.
//
// Events flow to pluggable sinks: JSONL export (cmd/emtrace's input), Chrome
// trace_event JSON (chrome://tracing, Perfetto) and an in-memory Ring holding
// the last N trials for the live HTTP monitor's /status endpoint.
package trace

import (
	"sync"
	"sync/atomic"
)

// Tracer owns the sinks and the live ring. A nil *Tracer is valid and
// disables every operation. Use New, not the zero value.
type Tracer struct {
	samples bool

	runSeq atomic.Int64

	mu    sync.Mutex // guards sink writes and err
	sinks []Sink
	err   error

	ring *Ring
}

// Options configures a Tracer.
type Options struct {
	// Sinks receive merged event batches, one per completed MC run.
	Sinks []Sink
	// Ring, when non-nil, receives a per-trial cascade summary the moment
	// each trial completes (live, before the run's deterministic merge).
	Ring *Ring
	// DisableSamples drops per-component TTF-sample events, the bulkiest
	// event class (one per component per trial).
	DisableSamples bool
}

// New returns a tracer writing to the given sinks.
func New(opt Options) *Tracer {
	return &Tracer{
		samples: !opt.DisableSamples,
		sinks:   opt.Sinks,
		ring:    opt.Ring,
	}
}

// defaultTracer holds the process-wide tracer; nil while disabled.
var defaultTracer atomic.Pointer[Tracer]

// Default returns the process-wide tracer, or nil when tracing is disabled.
func Default() *Tracer { return defaultTracer.Load() }

// Enabled reports whether a process-wide tracer is installed.
func Enabled() bool { return Default() != nil }

// SetDefault replaces the process-wide tracer; nil disables tracing.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Ring returns the tracer's live ring, or nil.
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// emit hands one merged batch to every sink. The batch is written atomically
// with respect to other batches (one mutex hold), so concurrent runs never
// interleave events within a run.
func (t *Tracer) emit(events []Event) {
	if t == nil || len(events) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sinks {
		if err := s.WriteEvents(events); err != nil && t.err == nil {
			t.err = err
		}
	}
}

// Close closes every sink, returning the first error any sink reported.
// Safe on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Run buffers the cascade events of one Monte-Carlo run: one append-only
// slot per trial, each owned by exactly one worker goroutine, merged in
// trial order at End. A nil *Run is a valid no-op.
type Run struct {
	t      *Tracer
	name   string
	seq    int64
	trials [][]Event
}

// BeginRun opens a per-run recorder named name with the given trial count.
// Returns nil (a no-op run) on a nil tracer or a non-positive trial count.
func (t *Tracer) BeginRun(name string, trials int) *Run {
	if t == nil || trials <= 0 {
		return nil
	}
	return &Run{
		t:      t,
		name:   name,
		seq:    t.runSeq.Add(1) - 1,
		trials: make([][]Event, trials),
	}
}

// Trial returns the recorder for trial i. The zero Trial (from a nil run or
// an out-of-range index) is a valid no-op.
func (r *Run) Trial(i int) Trial {
	if r == nil || i < 0 || i >= len(r.trials) {
		return Trial{}
	}
	return Trial{run: r, idx: i}
}

// End merges the per-trial buffers in deterministic trial order and flushes
// the batch to the tracer's sinks. A tracer without sinks has nothing to
// merge: its trials dropped their buffers at Trial.End. Safe on nil.
func (r *Run) End() {
	if r == nil || len(r.t.sinks) == 0 {
		return
	}
	total := 0
	for _, tb := range r.trials {
		total += len(tb)
	}
	merged := make([]Event, 0, total)
	for _, tb := range r.trials {
		merged = append(merged, tb...)
	}
	r.t.emit(merged)
}

// Trial records the cascade events of one trial. The zero value is a valid
// no-op; Enabled distinguishes it so callers can skip event-argument
// computation (e.g. the O(n) redistribution summary) when tracing is off.
type Trial struct {
	run *Run
	idx int
}

// Enabled reports whether this recorder actually records.
func (tr Trial) Enabled() bool { return tr.run != nil }

func (tr Trial) record(e Event) {
	e.Run = tr.run.name
	e.Seq = tr.run.seq
	e.Trial = tr.idx
	tr.run.trials[tr.idx] = append(tr.run.trials[tr.idx], e)
}

// Begin records the trial start with its component count.
func (tr Trial) Begin(components int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvTrialBegin, Comp: -1, N: components})
}

// Sample records component comp's freshly sampled base TTF (seconds).
func (tr Trial) Sample(comp int, ttf float64) {
	if tr.run == nil || !tr.run.t.samples {
		return
	}
	tr.record(Event{Type: EvSample, Comp: comp, V: ttf})
}

// Fail records the failure of component comp at simulated time t (seconds).
// label is the component's human identity (e.g. "Plus-shaped(3,4)"); empty
// when the system provides none.
func (tr Trial) Fail(t float64, comp int, label string) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvFail, T: t, Comp: comp, Label: label})
}

// Redistribute summarizes the current redistribution that followed a
// failure: the maximum relative aging rate among the alive survivors (and
// the component holding it), their mean rate, and the survivor count. A
// rising max records how redistribution concentrates stress.
func (tr Trial) Redistribute(t, maxRate float64, maxComp int, meanRate float64, survivors int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvRedistribute, T: t, Comp: maxComp, V: maxRate, V2: meanRate, N: survivors})
}

// SpecViolation records the system-level failure criterion firing at
// simulated time t, after failures component failures.
func (tr Trial) SpecViolation(t float64, failures int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvSpec, T: t, Comp: -1, N: failures})
}

// End records the trial outcome — the system TTF (+Inf when the criterion
// never fired) and the total component-failure count — and publishes the
// trial's cascade summary to the tracer's live ring, if any. Under a tracer
// without sinks the summary is the trial's only output, so its buffer is
// dropped here rather than held until Run.End.
func (tr Trial) End(ttf float64, failures int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvTrialEnd, Comp: -1, V: ttf, N: failures})
	if ring := tr.run.t.ring; ring != nil {
		ring.add(summarize(tr.run.name, tr.run.seq, tr.idx, tr.run.trials[tr.idx]))
	}
	if len(tr.run.t.sinks) == 0 {
		tr.run.trials[tr.idx] = nil
	}
}
