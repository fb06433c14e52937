// Package telemetry is the observability layer of the EM analysis pipeline:
// atomic counters, bounded histograms and span timers threaded through the
// hot paths (CG/Cholesky solves, the grid's failure cascade, the
// Monte-Carlo loops, the FEA pipeline and the worker pool).
//
// The design constraint is that disabled telemetry must cost essentially
// nothing, because the instrumented sites sit inside loops executed millions
// of times per run. Every sink is nil-safe: a nil *Registry hands out nil
// *Counter and *Histogram handles, and the mutating methods on those are
// no-ops on nil receivers, so instrumented code records unconditionally
// without branching on an "enabled" flag. Span timers go one step further —
// (*Histogram).Start returns the zero time.Time on a nil receiver, so the
// disabled path never even calls time.Now.
//
// Telemetry is also strictly observational: metrics never feed back into any
// computation, so deterministic outputs are bit-identical with telemetry on
// or off.
//
// The global registry is off by default. Enable installs one (idempotently)
// and publishes it on expvar; instrumented packages fetch handles through
// Default, which returns nil while disabled.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and histograms. The
// zero value is not useful; use New. A nil *Registry is valid and hands out
// nil sinks.
type Registry struct {
	counters sync.Map // string → *Counter
	gauges   sync.Map // string → *Gauge
	hists    sync.Map // string → *Histogram

	progress atomic.Pointer[progressSink]
	status   atomic.Pointer[statusState]
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, new(Counter))
	return c.(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a nil gauge, whose methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return g.(*Gauge)
}

// Histogram returns the histogram registered under name, creating it on
// first use. A nil registry returns a nil histogram, whose methods are
// no-ops.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.hists.LoadOrStore(name, newHistogram())
	return h.(*Histogram)
}

// defaultRegistry holds the process-wide registry; nil while disabled.
var defaultRegistry atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when telemetry is
// disabled. Instrumented code calls this once per operation (or caches the
// handles it needs) and records through the returned handles.
func Default() *Registry { return defaultRegistry.Load() }

// Enabled reports whether a process-wide registry is installed.
func Enabled() bool { return Default() != nil }

// Enable installs a process-wide registry if none is installed yet and
// returns the active one. It is idempotent and safe for concurrent use, and
// publishes the registry on expvar as "emvia" (once per process).
func Enable() *Registry {
	r := New()
	if !defaultRegistry.CompareAndSwap(nil, r) {
		r = defaultRegistry.Load()
	}
	publishExpvar()
	return r
}

// SetDefault replaces the process-wide registry; nil disables telemetry.
// Intended for tests, which install a fresh registry to observe one
// operation and remove it afterwards.
func SetDefault(r *Registry) { defaultRegistry.Store(r) }
