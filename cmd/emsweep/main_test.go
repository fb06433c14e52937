package main

import (
	"bytes"
	"strings"
	"testing"

	"emvia/internal/telemetry"
)

// TestSweepIndependentOfConcurrency checks the promise that knobs evaluated
// concurrently print exactly what a serial sweep prints, under the Monte
// Carlo and under the steady screen.
func TestSweepIndependentOfConcurrency(t *testing.T) {
	for _, engine := range []string{"mc", "steady"} {
		var outs [2]bytes.Buffer
		for i, conc := range []string{"1", "2"} {
			args := []string{"-engine", engine, "-fast", "-trials", "40", "-conc", conc}
			if err := run(args, &outs[i]); err != nil {
				t.Fatalf("%s -conc %s: %v", engine, conc, err)
			}
		}
		serial := outs[0].String()
		if n := strings.Count(serial, "\n"); n < len(knobs())+3 {
			t.Errorf("%s: %d lines, want a row per knob:\n%s", engine, n, serial)
		}
		if serial != outs[1].String() {
			t.Errorf("%s: -conc 2 output differs from -conc 1:\n%s\n---\n%s", engine, serial, outs[1].String())
		}
	}
}

// TestSweepSharesStressMemo runs a small sweep with concurrent knobs over
// the baseline analyzer's memo: the structure changes only under the two
// temperature knobs, so the sweep solves the FEA for the baseline and for
// their four perturbations, and for nothing else.
func TestSweepSharesStressMemo(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	var out bytes.Buffer
	if err := run([]string{"-fast", "-array", "2", "-trials", "15", "-conc", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(telemetry.FEMSolves).Value(); n != 5 {
		t.Errorf("fem.solves = %d, want 5 (baseline + two temperature knobs at ±delta)", n)
	}
	if n := strings.Count(out.String(), "\n"); n < len(knobs())+3 {
		t.Errorf("%d lines, want a row per knob:\n%s", n, out.String())
	}
}
