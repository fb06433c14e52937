package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/trace"
)

// -update regenerates testdata/golden.json from the current implementation:
//
//	go test ./cmd/paperfigs -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden.json with freshly computed metrics")

const goldenPath = "testdata/golden.json"

// goldenRelTol is the comparison tolerance. The pipeline is deterministic on
// a given platform (fixed seeds, fixed-order reductions), but a tiny relative
// tolerance keeps the test robust to FMA-contraction differences across
// architectures while still catching any real modelling or solver drift,
// which moves these metrics at the 1e-3 level or more.
const goldenRelTol = 1e-9

// goldenOptions is the reduced-scale configuration: coarse FEA meshes,
// halved grids and small trial counts, so the whole suite stays inside a
// normal `go test` budget while exercising the same code paths as the
// full paper run.
func goldenOptions() options {
	return options{trials: 80, gridTrials: 50, fast: true, seed: 2017}
}

// computeGoldenMetrics evaluates the paper-reproduction metrics of
// Figs 1/6/7/10 and Table 2 at reduced scale with fixed seeds.
func computeGoldenMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	opt := goldenOptions()
	a, err := core.NewCLIAnalyzer(opt.fast, opt.stressCache)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64)

	stressMetrics := func(prefix string, n int, pattern cudd.Pattern, row int) *cudd.Result {
		res, xs, sh, err := scanProfile(a, n, pattern, row)
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		_, wy, _ := windowAroundArray(res.Params, xs, sh)
		sum := 0.0
		for _, v := range wy {
			sum += v / phys.MPa
		}
		m[prefix+".scan_sum_mpa"] = sum
		m[prefix+".min_peak_mpa"] = res.MinPeak() / phys.MPa
		m[prefix+".max_peak_mpa"] = res.MaxPeak() / phys.MPa
		return res
	}

	// Fig 1: 1×1 vs 4×4 Plus-pattern stress profiles.
	stressMetrics("fig1.1x1", 1, cudd.Plus, 0)
	stressMetrics("fig1.4x4", 4, cudd.Plus, 1)

	// Fig 6: the three intersection patterns at 4×4.
	for _, pat := range cudd.Patterns() {
		stressMetrics("fig6."+pat.String(), 4, pat, 1)
	}

	// Fig 7: 4×4 vs 8×8, inner- and corner-via peaks.
	for _, n := range []int{4, 8} {
		prefix := fmt.Sprintf("fig7.%dx%d", n, n)
		res := stressMetrics(prefix, n, cudd.Plus, n/2-1)
		m[prefix+".inner_mpa"] = res.PeakSigmaT[n/2][n/2] / phys.MPa
		m[prefix+".corner_mpa"] = res.PeakSigmaT[0][0] / phys.MPa
	}

	// Fig 10 / Table 2: PG1 grid TTF metrics at 4×4 across the criterion
	// combinations (Table 2's PG1 row; Fig 10's CDF summarized by its
	// worst-case and median percentiles).
	g, err := buildGrid(pdn.PG1Spec(), opt.fast)
	if err != nil {
		t.Fatalf("buildGrid: %v", err)
	}
	comboKeys := []string{"wl_wl", "wl_rinf", "ir_wl", "ir_rinf"}
	for i, c := range combos() {
		rep, err := a.AnalyzeGrid(core.GridAnalysis{
			Grid:            g,
			ArrayN:          4,
			ArrayCriterion:  c.array,
			SystemCriterion: c.sys,
			IRDropFrac:      irCriterion,
			CharTrials:      opt.trials,
			GridTrials:      opt.gridTrials,
			Seed:            opt.seed + int64(400+i),
		})
		if err != nil {
			t.Fatalf("grid analysis %s: %v", comboName(c), err)
		}
		m["grid.pg1.4x4."+comboKeys[i]+".worst_years"] = rep.WorstCaseYears()
		m["grid.pg1.4x4."+comboKeys[i]+".median_years"] = rep.MedianYears()
	}
	return m
}

// TestGoldenFigures pins the paper-reproduction metrics against checked-in
// golden values; any drift in the FEA, EM model, Monte-Carlo engine or their
// seeds fails this test. Regenerate after an intentional change with
// `go test ./cmd/paperfigs -run Golden -update`.
func TestGoldenFigures(t *testing.T) {
	got := computeGoldenMetrics(t)

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden metrics to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (run `go test ./cmd/paperfigs -run Golden -update` to create them): %v", err)
	}
	var want map[string]float64
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenPath, err)
	}

	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("metric %s missing from current run", k)
			continue
		}
		if !withinRelTol(g, w, goldenRelTol) {
			t.Errorf("metric %s drifted: got %.17g, want %.17g (rel err %.3g)",
				k, g, w, relErr(g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("metric %s computed but absent from goldens (regenerate with -update)", k)
		}
	}
}

// TestGoldenFiguresWithTracing recomputes every golden metric with the
// structured tracer installed and requires bit-exact equality with an
// untraced run: tracing must observe the cascade, never perturb it. When
// EMVIA_GOLDEN_TRACE names a directory, the JSONL trace is written there
// (CI uploads it as an artifact on failure) instead of being discarded.
func TestGoldenFiguresWithTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the golden metrics twice")
	}
	plain := computeGoldenMetrics(t)

	var sink io.Writer = io.Discard
	if dir := os.Getenv("EMVIA_GOLDEN_TRACE"); dir != "" {
		f, err := os.Create(filepath.Join(dir, "golden.trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sink = f
		t.Logf("writing golden trace to %s", f.Name())
	}
	tr := trace.New(trace.Options{Sinks: []trace.Sink{trace.NewJSONLSink(sink)}})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)
	traced := computeGoldenMetrics(t)
	trace.SetDefault(nil)
	if err := tr.Close(); err != nil {
		t.Fatalf("closing tracer: %v", err)
	}

	for k, w := range plain {
		g, ok := traced[k]
		if !ok {
			t.Errorf("metric %s missing from traced run", k)
			continue
		}
		if g != w {
			t.Errorf("metric %s perturbed by tracing: %.17g, want %.17g", k, g, w)
		}
	}
	if len(traced) != len(plain) {
		t.Errorf("traced run computed %d metrics, untraced %d", len(traced), len(plain))
	}
}

func withinRelTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return relErr(a, b) <= tol
}

func relErr(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}
