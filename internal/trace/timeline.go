package trace

import (
	"context"
	"sync"
	"time"
)

// StageSpan is one completed stage of a job's execution timeline: where it
// started relative to the job's admit time and how long it ran. Durations are
// wall-clock seconds — timelines describe service latency, not simulated EM
// time.
type StageSpan struct {
	Stage           string  `json:"stage"`
	StartSeconds    float64 `json:"start_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// maxTimelineSpans bounds a timeline's retained spans. A job runs a fixed
// pipeline of under a dozen stages; the cap only guards against a buggy or
// adversarial caller looping Stage() forever.
const maxTimelineSpans = 1024

// Timeline accumulates the stage spans of one job. It is safe for concurrent
// use and nil-safe: every method on a nil *Timeline is a no-op, so
// instrumented code records unconditionally whether or not the caller asked
// for a timeline.
//
// The optional observer runs synchronously on each recorded span (outside the
// timeline lock) — the serve layer uses it to feed per-stage latency
// histograms without this package importing telemetry.
type Timeline struct {
	epoch    time.Time
	observer func(stage string, seconds float64)

	mu    sync.Mutex
	spans []StageSpan
}

// NewTimeline returns a timeline whose span start times are measured from
// epoch (the zero time selects "now"). observer, if non-nil, is invoked for
// every recorded span with the stage name and duration in seconds.
func NewTimeline(epoch time.Time, observer func(stage string, seconds float64)) *Timeline {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &Timeline{epoch: epoch, observer: observer}
}

// Stage starts a span for the named stage and returns the function that ends
// it. Usage: defer tl.Stage("compile")() — or capture the end function when
// the stage boundary is not a function boundary.
func (t *Timeline) Stage(stage string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Add(stage, start, time.Since(start)) }
}

// Add records an already-measured span. Callers use it for stages whose
// start precedes the timeline's construction (admit, queue-wait).
func (t *Timeline) Add(stage string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	span := StageSpan{
		Stage:           stage,
		StartSeconds:    start.Sub(t.epoch).Seconds(),
		DurationSeconds: d.Seconds(),
	}
	t.mu.Lock()
	if len(t.spans) < maxTimelineSpans {
		t.spans = append(t.spans, span)
	}
	t.mu.Unlock()
	if t.observer != nil {
		t.observer(stage, span.DurationSeconds)
	}
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Timeline) Spans() []StageSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// timelineKey is the context key carrying a job's *Timeline through the
// engine layers (serve executor → pdn → solver setup) without widening any
// signatures on the way.
type timelineKey struct{}

// WithTimeline returns a context carrying tl. A nil tl returns ctx unchanged.
func WithTimeline(ctx context.Context, tl *Timeline) context.Context {
	if tl == nil {
		return ctx
	}
	return context.WithValue(ctx, timelineKey{}, tl)
}

// TimelineFrom extracts the timeline carried by ctx, or nil — and nil is a
// valid recording target, so callers never branch on the result.
func TimelineFrom(ctx context.Context) *Timeline {
	tl, _ := ctx.Value(timelineKey{}).(*Timeline)
	return tl
}
