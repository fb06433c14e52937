package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload at tiny scale, untraced and traced, through
// the same code path as a full run, and checks that each run passes its own
// correctness checks and prints every metric BENCHMARK.json declares for its
// mode, and that the traced runs' layer spans explain the job wall time.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.Name, "-scale", "tiny", "-seconds", "0.2", "-trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the JSON result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			printed := make(map[string]bool)
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 && !strings.HasPrefix(l, "#") {
					printed[f[0]] = true
				}
			}
			want := make(map[string]bool)
			if trace == "1" {
				for _, m := range spec.PerLayer {
					want[m.Name] = true
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = true
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok || !printed[name] {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if trace == "1" {
				if u := res.Metrics["trace.uncovered_frac"].Value; u > 0.05 {
					t.Errorf("%s: layer spans leave %.3f of job time uncovered, want ≤ 0.05", w.Name, u)
				}
			}
		}
	}
}
