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
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
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

// updateRing rewrites testdata/live_ring.json from the current engine:
//
//	go test -run TestLiveRingDigest -update-ring .
var updateRing = flag.Bool("update-ring", false, "rewrite testdata/live_ring.json with freshly computed ring digests")

// ringEntry is the golden form of one trace.TrialSummary. Floats are
// spelled by strconv ('g', -1), so +Inf survives JSON.
type ringEntry struct {
	Run        string `json:"run"`
	Seq        int64  `json:"seq"`
	Trial      int    `json:"trial"`
	Failures   int    `json:"failures"`
	TTF        string `json:"ttf"`
	FirstComp  int    `json:"first_comp"`
	FirstLabel string `json:"first_label,omitempty"`
	FirstTime  string `json:"first_time"`
	SpecTime   string `json:"spec_time"`
	MaxRate    string `json:"max_rate"`
}

func ringEntryOf(s trace.TrialSummary) ringEntry {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return ringEntry{
		Run: s.Run, Seq: s.Seq, Trial: s.Trial, Failures: s.Failures, TTF: f(s.TTF),
		FirstComp: s.FirstComp, FirstLabel: s.FirstLabel, FirstTime: f(s.FirstTime),
		SpecTime: f(s.SpecTime), MaxRate: f(s.MaxRate),
	}
}

// sameRingEntry compares two entries: identity and counts exactly, times
// and rates to 1e-9 relative (the goldens' tolerance, which absorbs libm
// differences between architectures).
func sameRingEntry(a, b ringEntry) bool {
	near := func(x, y string) bool {
		u, err1 := strconv.ParseFloat(x, 64)
		v, err2 := strconv.ParseFloat(y, 64)
		return err1 == nil && err2 == nil && (u == v || math.Abs(u-v) <= 1e-9*math.Max(math.Abs(u), math.Abs(v)))
	}
	return a.Run == b.Run && a.Seq == b.Seq && a.Trial == b.Trial && a.Failures == b.Failures &&
		a.FirstComp == b.FirstComp && a.FirstLabel == b.FirstLabel &&
		near(a.TTF, b.TTF) && near(a.FirstTime, b.FirstTime) && near(a.SpecTime, b.SpecTime) && near(a.MaxRate, b.MaxRate)
}

// TestLiveRingDigest pins the live ring at the engine level: an IR-drop
// grid Monte Carlo and a screened weakest-link one (engine both), each at 1
// and 2 workers, under a ring-only tracer (emserve's: no sinks, no samples)
// and under one that also exports JSONL. Sorted by (seq, trial), the ring
// holds one summary per trial, the same under both tracers and at every
// worker count, and equal to testdata/live_ring.json. Two workers publish
// into one ring, so the race detector runs this test too.
func TestLiveRingDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	wl := func(t *testing.T) pdn.TTFConfig {
		cfg := traceGridConfig(t)
		cfg.Criterion = pdn.WeakestLink
		return cfg
	}
	cases := []struct {
		name string
		cfg  func(*testing.T) pdn.TTFConfig
		opt  mc.Options
	}{
		{"ir", traceGridConfig, mc.Options{Trials: 12, Seed: 7}},
		{"wl-screened", wl, mc.Options{Trials: 40, Seed: 3, Engine: mc.EngineBoth}},
	}
	tracers := []struct {
		name string
		opt  func(ring *trace.Ring) trace.Options
	}{
		{"ring-only", func(ring *trace.Ring) trace.Options {
			return trace.Options{Ring: ring, DisableSamples: true}
		}},
		{"jsonl+ring", func(ring *trace.Ring) trace.Options {
			return trace.Options{Ring: ring, Sinks: []trace.Sink{trace.NewJSONLSink(&bytes.Buffer{})}}
		}},
	}
	got := map[string][]ringEntry{}
	for _, tc := range cases {
		for _, w := range []int{1, 2} {
			for _, tk := range tracers {
				ring := trace.NewRing(trace.LiveRingSize)
				tr := trace.New(tk.opt(ring))
				trace.SetDefault(tr)
				opt := tc.opt
				opt.Workers = w
				_, _, err := pdn.Analyze(context.Background(), tc.cfg(t), pdn.ScreenConfig{}, opt)
				trace.SetDefault(nil)
				if cerr := tr.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", tc.name, w, tk.name, err)
				}
				snap := ring.Snapshot()
				if len(snap) < opt.Trials || ring.Total() != int64(len(snap)) {
					t.Fatalf("%s workers=%d %s: ring holds %d of %d summaries for %d trials", tc.name, w, tk.name, len(snap), ring.Total(), opt.Trials)
				}
				sort.Slice(snap, func(i, j int) bool {
					if snap[i].Seq != snap[j].Seq {
						return snap[i].Seq < snap[j].Seq
					}
					return snap[i].Trial < snap[j].Trial
				})
				entries := make([]ringEntry, len(snap))
				for i, s := range snap {
					entries[i] = ringEntryOf(s)
				}
				ref, ok := got[tc.name]
				if !ok {
					got[tc.name] = entries
					continue
				}
				// Within one host the ring must match the first run bit for bit.
				if len(entries) != len(ref) {
					t.Fatalf("%s workers=%d %s: %d summaries, want %d", tc.name, w, tk.name, len(entries), len(ref))
				}
				for i := range entries {
					if entries[i] != ref[i] {
						t.Fatalf("%s workers=%d %s: summary %d = %+v, want %+v", tc.name, w, tk.name, i, entries[i], ref[i])
					}
				}
			}
		}
	}

	const golden = "testdata/live_ring.json"
	if *updateRing {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-ring): %v", golden, err)
	}
	var want map[string][]ringEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		g, w := got[tc.name], want[tc.name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d summaries, golden has %d", tc.name, len(g), len(w))
		}
		for i := range g {
			if !sameRingEntry(g[i], w[i]) {
				t.Fatalf("%s: summary %d = %+v, golden %+v", tc.name, i, g[i], w[i])
			}
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
