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
//     identity, never wall-clock data, and each trial records into a
//     per-trial slot owned by exactly one worker. The merged stream (trial
//     order, then within-trial record order) is therefore byte-identical
//     between mc.Run and mc.RunParallel at any worker count, and between two
//     identical runs. The tracer never reads the clock.
//   - One pass: each event updates its trial's ring summary as it is
//     recorded, and only a tracer with sinks buffers the events themselves,
//     so a ring-only tracer (emserve's) records a trial without allocating.
//
// Events flow to pluggable sinks: JSONL export (cmd/emtrace's input) and
// Chrome trace_event JSON (chrome://tracing, Perfetto). An in-memory Ring
// holds the summaries of the last N trials for the live HTTP monitor's
// /status endpoint and emserve's job progress and event streams.
package trace

import (
	"math"
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

// Run records the cascade events of one Monte-Carlo run: one slot per
// trial, each owned by exactly one worker goroutine. With a ring, a slot
// holds the trial's summary, built as its events are recorded; with sinks,
// it also buffers the trial's events, merged in trial order at End. A nil
// *Run is a valid no-op.
type Run struct {
	t      *Tracer
	name   string
	seq    int64
	trials int
	sums   []TrialSummary // per-trial ring digests; nil without a ring
	events [][]Event      // per-trial event buffers; nil without sinks
}

// BeginRun opens a per-run recorder named name with the given trial count.
// Returns nil (a no-op run) on a nil tracer or a non-positive trial count.
func (t *Tracer) BeginRun(name string, trials int) *Run {
	if t == nil || trials <= 0 {
		return nil
	}
	r := &Run{t: t, name: name, seq: t.runSeq.Add(1) - 1, trials: trials}
	if t.ring != nil {
		r.sums = make([]TrialSummary, trials)
		for i := range r.sums {
			r.sums[i] = TrialSummary{Run: name, Seq: r.seq, Trial: i, TTF: math.Inf(1), FirstComp: -1, SpecTime: -1, MaxRate: 1}
		}
	}
	if len(t.sinks) > 0 {
		r.events = make([][]Event, trials)
	}
	return r
}

// Trial returns the recorder for trial i. The zero Trial (from a nil run or
// an out-of-range index) is a valid no-op.
func (r *Run) Trial(i int) Trial {
	if r == nil || i < 0 || i >= r.trials {
		return Trial{}
	}
	return Trial{run: r, idx: i}
}

// End merges the per-trial buffers in deterministic trial order and flushes
// the batch to the tracer's sinks. A tracer without sinks buffered nothing.
// Safe on nil.
func (r *Run) End() {
	if r == nil || r.events == nil {
		return
	}
	total := 0
	for _, tb := range r.events {
		total += len(tb)
	}
	merged := make([]Event, 0, total)
	for _, tb := range r.events {
		merged = append(merged, tb...)
	}
	r.t.emit(merged)
}

// Labeler names components for fail events, e.g. "Plus-shaped(3,4)" for a
// grid's via array (mc.ComponentLabeler has the same method).
type Labeler interface {
	ComponentLabel(i int) string
}

// Trial records the cascade events of one trial. The zero value is a valid
// no-op; Enabled distinguishes it so callers can skip event-argument
// computation (e.g. the O(n) redistribution summary) when tracing is off.
type Trial struct {
	run *Run
	idx int
	lab Labeler
}

// Enabled reports whether this recorder actually records.
func (tr Trial) Enabled() bool { return tr.run != nil }

// Labeled returns the recorder naming unlabeled failed components through
// lab, which is asked only when a sink will write the label or the ring's
// first-failure fields are still empty.
func (tr Trial) Labeled(lab Labeler) Trial {
	tr.lab = lab
	return tr
}

// record digests e into the trial's ring summary and, under sinks, appends
// it to the trial's buffer.
func (tr Trial) record(e Event) {
	r := tr.run
	if r.sums != nil {
		s := &r.sums[tr.idx]
		switch e.Type {
		case EvFail:
			if s.FirstComp < 0 {
				s.FirstComp, s.FirstLabel, s.FirstTime = e.Comp, e.Label, e.T
			}
		case EvRedistribute:
			if e.V > s.MaxRate {
				s.MaxRate = e.V
			}
		case EvSpec:
			s.SpecTime = e.T
		case EvTrialEnd:
			s.TTF, s.Failures = e.V, e.N
		}
	}
	if r.events != nil {
		e.Run, e.Seq, e.Trial = r.name, r.seq, tr.idx
		r.events[tr.idx] = append(r.events[tr.idx], e)
	}
}

// Begin records the trial start with its component count.
func (tr Trial) Begin(components int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvTrialBegin, Comp: -1, N: components})
}

// Sample records component comp's freshly sampled base TTF (seconds). Only
// sinks see samples; the ring summary ignores them.
func (tr Trial) Sample(comp int, ttf float64) {
	if tr.run == nil || tr.run.events == nil || !tr.run.t.samples {
		return
	}
	tr.record(Event{Type: EvSample, Comp: comp, V: ttf})
}

// Fail records the failure of component comp at simulated time t (seconds).
// label is the component's human identity (e.g. "Plus-shaped(3,4)"); when
// empty, the recorder's Labeler, if any, names comp where the label is kept.
func (tr Trial) Fail(t float64, comp int, label string) {
	r := tr.run
	if r == nil {
		return
	}
	if label == "" && tr.lab != nil && (r.events != nil || (r.sums != nil && r.sums[tr.idx].FirstComp < 0)) {
		label = tr.lab.ComponentLabel(comp)
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
// trial's cascade summary to the tracer's live ring, if any.
func (tr Trial) End(ttf float64, failures int) {
	if tr.run == nil {
		return
	}
	tr.record(Event{Type: EvTrialEnd, Comp: -1, V: ttf, N: failures})
	if tr.run.sums != nil {
		tr.run.t.ring.add(tr.run.sums[tr.idx])
	}
}
