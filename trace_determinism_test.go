// Trace determinism matrix: the structured-event layer must produce a JSONL
// cascade stream that is byte-identical between the serial Monte-Carlo
// engine and every parallel worker count. Cascade events carry only
// simulated time and component identity, workers write into per-trial
// buffer slots, and the merge walks trials in index order — so any
// wall-clock or scheduling leak into the event stream fails this test
// loudly. The trace carries no wall-clock data at all, so whole files are
// compared.
package emvia_test

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// captureTraces installs a fresh tracer with a JSONL and a Chrome sink
// around fn and returns both files. The default tracer is always
// uninstalled before return so a failing fn cannot leak tracing into other
// tests.
func captureTraces(t *testing.T, fn func() error) (jsonl, chrome []byte) {
	t.Helper()
	var jbuf, cbuf bytes.Buffer
	tr := trace.New(trace.Options{Sinks: []trace.Sink{trace.NewJSONLSink(&jbuf), trace.NewChromeSink(&cbuf)}})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)
	err := fn()
	trace.SetDefault(nil)
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return jbuf.Bytes(), cbuf.Bytes()
}

// captureTraceJSONL returns the JSONL trace fn emits.
func captureTraceJSONL(t *testing.T, fn func() error) []byte {
	t.Helper()
	jsonl, _ := captureTraces(t, fn)
	return jsonl
}

// TestTraceDeterminismViaArrayMC asserts the merged event stream of
// mc.RunParallel over a via array equals the serial stream byte for byte at
// every worker count.
func TestTraceDeterminismViaArrayMC(t *testing.T) {
	cfg := ablationConfig(4, 16)
	opt := mc.Options{Trials: 40, Seed: 42, RunToCompletion: true}

	ref := captureTraceJSONL(t, func() error {
		sys, err := viaarray.New(cfg)
		if err != nil {
			return err
		}
		_, err = mc.Run(sys, opt)
		return err
	})
	if len(ref) == 0 {
		t.Fatal("serial run emitted no trace events")
	}
	if !bytes.Contains(ref, []byte(`"via(`)) {
		t.Fatalf("trace lacks via component labels:\n%.400s", ref)
	}

	for _, w := range mcWorkerCounts {
		popt := opt
		popt.Workers = w
		got := captureTraceJSONL(t, func() error {
			_, err := mc.RunParallel(func() (mc.System, error) { return viaarray.New(cfg) }, popt)
			return err
		})
		if !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d: trace differs from serial run (%d vs %d bytes)\nfirst divergence: %s",
				w, len(got), len(ref), firstDivergence(got, ref))
		}
	}
}

// TestTraceDeterminismGridMC is the same matrix over the power-grid system,
// whose trials trigger failure cascades and spec-violation events.
func TestTraceDeterminismGridMC(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	opt := mc.Options{Trials: 12, Seed: 7}

	ref := captureTraceJSONL(t, func() error {
		sys, err := pdn.NewSystem(traceGridConfig(t))
		if err != nil {
			return err
		}
		_, err = mc.Run(sys, opt)
		return err
	})
	if !bytes.Contains(ref, []byte(`"spec_violation"`)) {
		t.Fatalf("grid trace has no spec_violation events:\n%.400s", ref)
	}

	for _, w := range mcWorkerCounts {
		popt := opt
		popt.Workers = w
		got := captureTraceJSONL(t, func() error {
			cfg := traceGridConfig(t)
			_, err := mc.RunParallel(func() (mc.System, error) { return pdn.NewSystem(cfg) }, popt)
			return err
		})
		if !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d: grid trace differs from serial run (%d vs %d bytes)\nfirst divergence: %s",
				w, len(got), len(ref), firstDivergence(got, ref))
		}
	}
}

// TestTraceRepeatable runs the same serial grid and via-array Monte Carlo
// twice each: both runs must write byte-identical JSONL and Chrome files.
// Neither export may carry anything that differs run to run.
func TestTraceRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	cases := []struct {
		name   string
		system func() (mc.System, error)
		opt    mc.Options
	}{
		{"grid", func() (mc.System, error) { return pdn.NewSystem(traceGridConfig(t)) }, mc.Options{Trials: 12, Seed: 7}},
		{"via-array", func() (mc.System, error) { return viaarray.New(ablationConfig(4, 16)) },
			mc.Options{Trials: 40, Seed: 42, RunToCompletion: true}},
	}
	for _, tc := range cases {
		run := func() error {
			sys, err := tc.system()
			if err != nil {
				return err
			}
			_, err = mc.Run(sys, tc.opt)
			return err
		}
		jsonl1, chrome1 := captureTraces(t, run)
		jsonl2, chrome2 := captureTraces(t, run)
		if !bytes.Contains(chrome1, []byte(`"name":"cascade"`)) {
			t.Fatalf("%s: Chrome trace has no cascade slices:\n%.400s", tc.name, chrome1)
		}
		if !bytes.Equal(jsonl1, jsonl2) {
			t.Fatalf("%s: JSONL differs between identical runs\nfirst divergence: %s", tc.name, firstDivergence(jsonl2, jsonl1))
		}
		if !bytes.Equal(chrome1, chrome2) {
			t.Fatalf("%s: Chrome trace differs between identical runs\nfirst divergence: %s", tc.name, firstDivergence(chrome2, chrome1))
		}
	}
}

// traceGridConfig builds the same small tuned grid the determinism matrix
// uses, so the two tests pin the same pipeline from different angles.
func traceGridConfig(t *testing.T) pdn.TTFConfig {
	t.Helper()
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 6, 6
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const refViaAmps = 0.065
	if err := g.Tune(0.05, refViaAmps); err != nil {
		t.Fatal(err)
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	return pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion:  pdn.IRDrop,
		IRDropFrac: 0.10,
	}
}

// firstDivergence renders the line around the first differing byte.
func firstDivergence(got, ref []byte) string {
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return "offset " + strconv.Itoa(i) + ": got ..." + string(got[lo:min(i+80, len(got))]) +
				"... want ..." + string(ref[lo:min(i+80, len(ref))]) + "..."
		}
	}
	return "streams share a prefix; lengths differ"
}
