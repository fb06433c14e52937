package main

import (
	"sort"
	"strconv"
	"strings"

	"emvia/internal/telemetry"
)

// metricDecl is a metric's name and unit as BENCHMARK.json declares them.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"job_s_p50", "s"},
	{"hit_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
	{"trials_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced run.
// A layer a workload does not exercise reports 0. Times and counts are per
// job of the traced pass unless the name says otherwise; README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDecl{
	{"pdn.generate_s", "s"},
	{"pdn.calibrate_s", "s"},
	{"pdn.refcurrent_s", "s"},
	{"pdn.system_s", "s"},
	{"spice.compile_s", "s"},
	{"spice.factor_s", "s"},
	{"spice.resets", "count"},
	{"steady.screen_s", "s"},
	{"steady.mortal_frac", "ratio"},
	{"mc.clone_s", "s"},
	{"mc.prepare_s", "s"},
	{"mc.begin_s", "s"},
	{"mc.fail_s", "s"},
	{"mc.check_s", "s"},
	{"mc.fails", "count"},
	{"mc.fails_per_trial", "count"},
	{"mc.run_s", "s"},
	{"mc.worker_busy_frac", "ratio"},
	{"solver.factorizations", "count"},
	{"solver.updates", "count"},
	{"solver.downdates", "count"},
	{"solver.solves", "count"},
	{"core.stress_cold_s", "s"},
	{"core.stress_warm_ms", "ms"},
	{"core.stresscache.hit_ratio", "ratio"},
	{"fem.solves", "count"},
	{"fem.assembly_s", "s"},
	{"fem.solve_s", "s"},
	{"fem.stress_recovery_s", "s"},
	{"viaarray.models_s", "s"},
	{"trace.uncovered_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value in the JSON result's form.
type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps names to values; units come from the declarations.
type metrics map[string]metric

var unitOf = func() map[string]string {
	u := make(map[string]string)
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			u[d.name] = d.unit
		}
	}
	return u
}()

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m[name] = metric{name: name, Value: v, Unit: unit}
}

// atReferenceSpeed scales every time in m to the reference host speed,
// given the host's slowdown factor: times divide by it, rates multiply.
func (m metrics) atReferenceSpeed(factor float64) {
	for name, v := range m {
		switch v.Unit {
		case "s", "ms":
			v.Value /= factor
		case "1/s":
			v.Value *= factor
		default:
			continue
		}
		m[name] = v
	}
}

// format renders m as "name=value" pairs in name order.
func (m metrics) format() string {
	var parts []string
	for _, v := range m.sorted() {
		parts = append(parts, v.name+"="+strconv.FormatFloat(v.Value, 'g', -1, 64))
	}
	return strings.Join(parts, " ")
}

func (m metrics) sorted() []metric {
	out := make([]metric, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// telemetryDelta is the change in the program's own counters over the
// traced pass.
type telemetryDelta struct{ before, after *telemetry.Snapshot }

func (d *telemetryDelta) count(names ...string) float64 {
	n := int64(0)
	for _, name := range names {
		n += d.after.Counters[name] - d.before.Counters[name]
	}
	return float64(n)
}

func (d *telemetryDelta) seconds(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// layerMetrics assembles a traced run's per-layer metrics from the
// untraced pass a, the traced pass b that repeated its units, the spans b
// recorded, the program counters over b and the metrics the workload
// measured itself (own).
func layerMetrics(a, b *passResult, spans []span, tel *telemetryDelta, own map[string]float64) metrics {
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, own[d.name])
	}
	jobs := float64(len(b.jobs))
	perJob := func(v float64) float64 { return ratio(v, jobs) }
	self := layerTimes(spans)
	for _, name := range []string{
		"pdn.generate", "pdn.calibrate", "pdn.refcurrent", "pdn.system", "spice.compile", "spice.factor",
		"steady.screen", "mc.run", "core.stress_cold", "viaarray.models",
	} {
		m.set(name+"_s", perJob(self[name]))
	}
	m.set("spice.resets", perJob(tel.count(telemetry.SpiceResets)))
	m.set("solver.factorizations", perJob(tel.count(telemetry.SparseFactorizations, telemetry.DenseFactorizations)))
	m.set("solver.updates", perJob(tel.count(telemetry.SparseUpdates, telemetry.DenseUpdates)))
	m.set("solver.downdates", perJob(tel.count(telemetry.SparseDowndates, telemetry.DenseDowndates)))
	m.set("solver.solves", perJob(tel.count(telemetry.SparseSolves, telemetry.DenseSolves)))
	m.set("fem.solves", perJob(tel.count(telemetry.FEMSolves)))
	m.set("fem.assembly_s", perJob(tel.seconds(telemetry.FEMAssemblySeconds)))
	m.set("fem.solve_s", perJob(tel.seconds(telemetry.FEMSolveSeconds)))
	m.set("fem.stress_recovery_s", perJob(tel.seconds(telemetry.FEMStressSeconds)))
	lookups := tel.count(telemetry.StressDiskHits, telemetry.StressDiskMisses, telemetry.StressDiskBad)
	m.set("core.stresscache.hit_ratio", ratio(tel.count(telemetry.StressDiskHits), lookups))
	m.set("trace.uncovered_frac", uncoveredFrac(spans, "job"))
	m.set("trace.overhead_frac", ratio(median(b.jobs)/b.host.factor(), median(a.jobs)/a.host.factor())-1)
	return m
}
