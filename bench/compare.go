package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"emvia/internal/stat"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runsByWorkload maps workload -> metric -> one value per untraced run.
type runsByWorkload map[string]map[string][]float64

// readRuns reads the concatenated output of untraced runs: each run's
// header line names its workload, and its last line is the JSON result.
func readRuns(path string) (runsByWorkload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(runsByWorkload)
	workload, traced := "", false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# emvia-bench ") {
			workload, traced = "", false
			for _, field := range strings.Fields(line) {
				if k, v, ok := strings.Cut(field, "="); ok && k == "workload" {
					workload = v
				} else if field == "trace=1" {
					traced = true
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "{") || workload == "" || traced {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[workload] == nil {
			out[workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[workload][name] = append(out[workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	e, err := stat.NewECDF(xs)
	if err != nil {
		return 0, 0, 0
	}
	return e.Percentile(0.25), e.Percentile(0.5), e.Percentile(0.75)
}

// runCompare compares two sets of runs of the same benchmark, one row per
// workload and end-to-end metric: each side's median and quartiles, the
// change of the medians, and a verdict against the metric's bound — "worse"
// beyond it, "unresolved" when either side's quartile spread is wider than
// the bound, otherwise "ok". It exits 1 when any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding each metric's bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] old.out new.out")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(stdout, "%-12s %-13s %5s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "runs", "old median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := ratio(b2-a2, a2)
			verdict := "ok"
			switch {
			case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
				verdict = "unresolved"
			case m.Better == "lower" && change > m.Bound, m.Better == "higher" && change < -m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(stdout, "%-12s %-13s %2d/%-2d %-34s %-34s %+7.1f%% %5.0f%%  %s\n", w, m.Name, len(va), len(vb),
				fmt.Sprintf("%.4g [%.4g %.4g] %s", a2, a1, a3, m.Unit), fmt.Sprintf("%.4g [%.4g %.4g] %s", b2, b1, b3, m.Unit),
				change*100, m.Bound*100, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}
