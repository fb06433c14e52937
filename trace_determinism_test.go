// Trace determinism matrix: the structured-event layer must produce a JSONL
// cascade stream that is byte-identical between the serial Monte-Carlo
// engine and every parallel worker count. Cascade events carry only
// simulated time and component identity, workers write into per-trial
// buffer slots, and the merge walks trials in index order — so any
// wall-clock or scheduling leak into the event stream fails this test
// loudly. Span events are the trace's separate wall-clock stream and are
// compared apart from it.
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

// captureTraceJSONL installs a fresh tracer around fn and returns the JSONL
// lines it emitted, split into the deterministic cascade stream and the
// wall-clock span lines (`"type":"span"`), whose timing fields differ run to
// run by design. The default tracer is always uninstalled before return so
// a failing fn cannot leak tracing into other tests.
func captureTraceJSONL(t *testing.T, fn func() error) (cascade, spans []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(trace.Options{Sinks: []trace.Sink{trace.NewJSONLSink(&buf)}})
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
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"span"`)) {
			spans = append(spans, line...)
		} else {
			cascade = append(cascade, line...)
		}
	}
	return cascade, spans
}

// TestTraceDeterminismViaArrayMC asserts the merged event stream of
// mc.RunParallel over a via array equals the serial stream byte for byte at
// every worker count.
func TestTraceDeterminismViaArrayMC(t *testing.T) {
	cfg := ablationConfig(4, 16)
	opt := mc.Options{Trials: 40, Seed: 42, RunToCompletion: true}

	ref, _ := captureTraceJSONL(t, func() error {
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
		got, _ := captureTraceJSONL(t, func() error {
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
// whose trials trigger failure cascades and spec-violation events. Each run
// builds, tunes and factors its own grid, so it must also emit
// spice.sparse.factor spans — proof the wall-clock stream was captured and
// set aside rather than absent.
func TestTraceDeterminismGridMC(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	opt := mc.Options{Trials: 12, Seed: 7}

	ref, refSpans := captureTraceJSONL(t, func() error {
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
	factorSpan := []byte(`"label":"spice.sparse.factor"`)
	if !bytes.Contains(refSpans, factorSpan) {
		t.Fatalf("serial grid run emitted no spice.sparse.factor spans:\n%.400s", refSpans)
	}

	for _, w := range mcWorkerCounts {
		popt := opt
		popt.Workers = w
		got, spans := captureTraceJSONL(t, func() error {
			cfg := traceGridConfig(t)
			_, err := mc.RunParallel(func() (mc.System, error) { return pdn.NewSystem(cfg) }, popt)
			return err
		})
		if !bytes.Contains(spans, factorSpan) {
			t.Fatalf("Workers=%d: grid run emitted no spice.sparse.factor spans", w)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d: grid trace differs from serial run (%d vs %d bytes)\nfirst divergence: %s",
				w, len(got), len(ref), firstDivergence(got, ref))
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
