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
// The global registry is off by default. Enable installs one
// (idempotently); instrumented packages fetch handles through Default, which
// returns nil while disabled.
//
// Every metric name follows one grammar (see parseName), checked once when
// its metric is created: a family base, optionally followed by one
// `{key=value}` label. The metrics of one base form a family of a single
// kind and label key, which the Prometheus writer and HistogramFamily read
// without parsing names again.
package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and histograms. The
// zero value is not useful; use New. A nil *Registry is valid and hands out
// nil sinks.
type Registry struct {
	metrics sync.Map // name → *Counter, *Gauge or *Histogram

	mu       sync.Mutex
	families map[string]*family // by base, dots as underscores

	progress atomic.Pointer[progressSink]
	status   atomic.Pointer[statusState]
}

// New returns an empty registry.
func New() *Registry { return &Registry{families: make(map[string]*family)} }

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil counter, whose methods are no-ops.
// Creation panics if name breaks the metric-name grammar or its base
// already names a family of another kind or label key.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.metrics.Load(name); ok {
		if c, ok := m.(*Counter); ok {
			return c
		}
	}
	return r.register(name, counterKind).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first use
// (and panicking as Counter does). A nil registry returns a nil gauge, whose
// methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.metrics.Load(name); ok {
		if g, ok := m.(*Gauge); ok {
			return g
		}
	}
	return r.register(name, gaugeKind).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it on
// first use (and panicking as Counter does). A nil registry returns a nil
// histogram, whose methods are no-ops.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if m, ok := r.metrics.Load(name); ok {
		if h, ok := m.(*Histogram); ok {
			return h
		}
	}
	return r.register(name, histogramKind).(*Histogram)
}

// kind is a family's metric type, spelled as the exposition's TYPE line
// spells it.
type kind string

const (
	counterKind   kind = "counter"
	gaugeKind     kind = "gauge"
	histogramKind kind = "histogram"
)

// family is every metric registered under one base: a single unlabeled
// metric, or one metric per value of a single label key.
type family struct {
	base    string // dotted, e.g. "serve.stage_seconds"
	name    string // exposition name: "emvia_" + base, dots as underscores, counters + "_total"
	kind    kind
	key     string   // label key, "" when unlabeled
	members []member // sorted by label value
}

type member struct {
	value  string // label value, "" when unlabeled
	metric any    // *Counter, *Gauge or *Histogram, as the family's kind
}

// register creates the metric name of kind k under the registry lock, or
// returns the one a racing caller created first.
func (r *Registry) register(name string, k kind) any {
	base, key, value, err := parseName(name)
	if err != nil {
		panic(fmt.Sprintf("telemetry: metric %q: %v", name, err))
	}
	id := strings.ReplaceAll(base, ".", "_")
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[id]
	switch {
	case f == nil:
		f = &family{base: base, name: "emvia_" + id, kind: k, key: key}
		if k == counterKind {
			f.name += "_total"
		}
		r.families[id] = f
	case f.base != base:
		panic(fmt.Sprintf("telemetry: metric %q: base %q and family %q expose one name", name, base, f.base))
	case f.kind != k:
		panic(fmt.Sprintf("telemetry: metric %q: a %s, but family %q holds %ss", name, k, base, f.kind))
	case f.key != key:
		panic(fmt.Sprintf("telemetry: metric %q: label key %q, but family %q is keyed by %q", name, key, base, f.key))
	}
	i, found := slices.BinarySearchFunc(f.members, value, func(m member, v string) int { return strings.Compare(m.value, v) })
	if found {
		return f.members[i].metric
	}
	var m any
	switch k {
	case counterKind:
		m = new(Counter)
	case gaugeKind:
		m = new(Gauge)
	default:
		m = newHistogram()
	}
	f.members = slices.Insert(f.members, i, member{value: value, metric: m})
	r.metrics.Store(name, m)
	return m
}

// parseName splits a metric name into its base and optional label, or
// says which rule of the grammar it breaks:
//
//	name  = base [ "{" key "=" value "}" ]
//	base  = [a-z][a-z0-9_.]*, not ending in _total, _sum, _count or _bucket
//	        once dots become underscores (the suffixes the exposition adds)
//	key   = [a-z_]+, neither "le" (the bucket label) nor "__"-prefixed
//	value = [a-z0-9_.-]+
//
// Every name passes to Prometheus unescaped, so the exposition needs no
// sanitizer.
func parseName(name string) (base, key, value string, err error) {
	base = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		label, ok := strings.CutSuffix(name[i+1:], "}")
		if !ok {
			return "", "", "", fmt.Errorf("label does not end the name with }")
		}
		base = name[:i]
		if key, value, ok = strings.Cut(label, "="); !ok {
			return "", "", "", fmt.Errorf("label %q is not key=value", label)
		}
		if !only(key, "abcdefghijklmnopqrstuvwxyz_") || key == "le" || strings.HasPrefix(key, "__") {
			return "", "", "", fmt.Errorf("label key %q is not [a-z_]+, or is reserved", key)
		}
		if !only(value, "abcdefghijklmnopqrstuvwxyz0123456789_.-") {
			return "", "", "", fmt.Errorf("label value %q is not [a-z0-9_.-]+", value)
		}
	}
	if base == "" || base[0] < 'a' || base[0] > 'z' || !only(base, "abcdefghijklmnopqrstuvwxyz0123456789_.") {
		return "", "", "", fmt.Errorf("base %q is not [a-z][a-z0-9_.]*", base)
	}
	id := strings.ReplaceAll(base, ".", "_")
	for _, suffix := range []string{"_total", "_sum", "_count", "_bucket"} {
		if strings.HasSuffix(id, suffix) {
			return "", "", "", fmt.Errorf("base %q ends in the exposition suffix %s", base, suffix)
		}
	}
	return base, key, value, nil
}

// only reports whether s is non-empty and every byte of s is in set.
func only(s, set string) bool {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(set, s[i]) < 0 {
			return false
		}
	}
	return s != ""
}

// HistogramFamily snapshots the histograms registered under base, by label
// value ("" for an unlabeled one); nil when base names no histogram family.
func (r *Registry) HistogramFamily(base string) map[string]HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[strings.ReplaceAll(base, ".", "_")]
	if f == nil || f.base != base || f.kind != histogramKind {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(f.members))
	for _, m := range f.members {
		out[m.value] = m.metric.(*Histogram).Snapshot()
	}
	return out
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
// returns the active one. It is idempotent and safe for concurrent use.
func Enable() *Registry {
	r := New()
	if !defaultRegistry.CompareAndSwap(nil, r) {
		r = defaultRegistry.Load()
	}
	return r
}

// SetDefault replaces the process-wide registry; nil disables telemetry.
// Intended for tests, which install a fresh registry to observe one
// operation and remove it afterwards.
func SetDefault(r *Registry) { defaultRegistry.Store(r) }
