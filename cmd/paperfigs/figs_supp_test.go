package main

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/pdn"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// fn printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFigS3PrintsSteadyScreen checks that S3 names its tree-level threshold
// and prints, for each grid, the wire counts of the steady screen.
func TestFigS3PrintsSteadyScreen(t *testing.T) {
	opt := goldenOptions()
	a, err := core.NewCLIAnalyzer(opt.fast, opt.stressCache)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return figS3(a, opt) })
	if !strings.Contains(out, "tree-level (sigma_crit = 1e-3 quantile of sigma_C = 296 MPa, no wire pre-stress)") {
		t.Errorf("S3 does not name its threshold:\n%s", out)
	}
	for _, mk := range []func() pdn.GridSpec{pdn.PG1Spec, pdn.PG2Spec, pdn.PG5Spec} {
		g, err := buildGrid(mk(), opt.fast)
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := pdn.Analyze(context.Background(), pdn.TTFConfig{Grid: g},
			pdn.ScreenConfig{EM: a.EM}, mc.Options{Engine: mc.EngineSteady})
		if err != nil {
			t.Fatal(err)
		}
		if s.MortalSegments == 0 || s.MortalSegments == s.Segments {
			t.Errorf("%s: %d/%d mortal segments classify nothing", g.Spec.Name, s.MortalSegments, s.Segments)
		}
		want := fmt.Sprintf("%-5s %5d segments, %4d mortal", g.Spec.Name, s.Segments, s.MortalSegments)
		if !strings.Contains(out, want) {
			t.Errorf("S3 lacks %q:\n%s", want, out)
		}
	}
}

// TestFigS4ReportsMissingLowerBound checks S4's worst-case interval at 50
// grid trials: the order-statistic upper bound is printed and lies at or
// above the point estimate, and the lower bound is reported as needing more
// trials.
func TestFigS4ReportsMissingLowerBound(t *testing.T) {
	opt := goldenOptions()
	a, err := core.NewCLIAnalyzer(opt.fast, opt.stressCache)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return figS4(a, opt) })
	point := regexp.MustCompile(`thermal-aware: median +[0-9.]+ y, worst-case +([0-9.]+) y`).FindStringSubmatch(out)
	ci := regexp.MustCompile(`worst-case 95% CI \(order statistics\): \[too few trials \(needs 1228\), ([0-9.]+)\] years`).FindStringSubmatch(out)
	if point == nil || ci == nil {
		t.Fatalf("S4 output lacks the worst case or its interval:\n%s", out)
	}
	worst, _ := strconv.ParseFloat(point[1], 64)
	hi, _ := strconv.ParseFloat(ci[1], 64)
	if !(hi >= worst) {
		t.Errorf("upper bound %g below worst case %g", hi, worst)
	}
}
