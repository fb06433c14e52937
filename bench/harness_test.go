package main

import (
	"encoding/json"
	"regexp"
	"testing"
)

func TestNearestRankMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2}, // even count: the lower middle sample, never an average
		{[]float64{9, 1, 9, 1, 5}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := nearestRank(xs, 0.9); got != 90 {
		t.Errorf("nearest-rank p90 of 1..100 = %g, want 90", got)
	}
	if got := nearestRank(xs[:5], 0.1); got != 96 {
		t.Errorf("nearest-rank p10 of 96..100 = %g, want the smallest sample, 96", got)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 9}, // overlaps a by 1
		{ID: 4, Parent: 3, Name: "c", Start: 5, End: 7},
	}
	self := layerTimes(spans)
	for name, want := range map[string]float64{"job": 1, "a": 4, "b": 4, "c": 2} {
		if self[name] != want {
			t.Errorf("self time of %s = %g, want %g", name, self[name], want)
		}
	}
	if got := uncoveredFrac(spans, "job"); got != 0.1 {
		t.Errorf("uncovered share = %g, want 0.1", got)
	}
}

// TestMetricNamesDeclared pins the metric lists the harness prints to
// BENCHMARK.json, names and units both ways.
func TestMetricNamesDeclared(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	declaredUnits := make(map[string]string)
	for _, m := range spec.EndToEnd {
		declaredUnits[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declaredUnits[m.Name] = m.Unit
	}
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
			}
			if unit, ok := declaredUnits[d.name]; !ok || unit != d.unit {
				t.Errorf("metric %s (%s) is not declared in BENCHMARK.json with that unit (got %q)", d.name, d.unit, unit)
			}
		}
	}
	if len(declaredUnits) != len(endToEnd)+len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d metrics, the harness prints %d", len(declaredUnits), len(endToEnd)+len(perLayer))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
}

// TestInputsDeterministic requires every workload's inputs to be a pure
// function of the seed: byte-identical for one seed, different across seeds.
func TestInputsDeterministic(t *testing.T) {
	inputs := func(seed int64) []byte {
		buf, err := json.Marshal(map[string]any{
			"ir-cascade":  libraryJobs("ir-cascade", false, seed),
			"wl-screened": libraryJobs("wl-screened", false, seed),
			"array-char":  arrayCharSeeds(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b, c := inputs(1), inputs(1), inputs(2)
	if string(a) != string(b) {
		t.Error("the same seed produced different inputs")
	}
	if string(a) == string(c) {
		t.Error("seeds 1 and 2 produced identical inputs")
	}
}
