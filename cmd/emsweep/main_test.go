package main

import (
	"bytes"
	"strings"
	"testing"
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
