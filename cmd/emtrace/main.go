// Command emtrace analyzes the observability artifacts of the EM pipeline:
// the JSONL failure-cascade traces written by emgrid/emsweep/paperfigs
// -trace, and the run ledger written by emserve.
//
// Usage:
//
//	emtrace [-top N] [-noplot] trace.jsonl [more.jsonl ...]
//	emtrace -                      # read a trace from stdin
//	emtrace ledger [-top N] ledger.jsonl [more.jsonl ...]
//
// The trace report covers per-run cascade statistics, failure-order
// histograms by component family (mesh pattern / via position), the
// cascade-length distribution, and a time-to-spec vs first-failure scatter.
// The ledger report covers job outcomes, throughput, dedup rate,
// queue-wait/wall-clock percentiles and the per-stage latency breakdown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"emvia/internal/phys"
	"emvia/internal/textplot"
	"emvia/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage:")
	fmt.Fprintln(stderr, "  emtrace [-top N] [-noplot] trace.jsonl [more.jsonl ...]")
	fmt.Fprintln(stderr, "  emtrace -          (read a trace from stdin)")
	fmt.Fprintln(stderr, "  emtrace ledger [-top N] ledger.jsonl [more.jsonl ...]")
}

// run dispatches the subcommand and returns the process exit code. An
// unknown subcommand — a first argument that is not a flag, not stdin and
// not an existing file — is a usage error, not a silent empty report.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch arg := args[0]; {
		case arg == "ledger":
			return runLedger(args[1:], stdout, stderr)
		case arg == "help", arg == "-h", arg == "--help":
			usage(stderr)
			return 0
		case arg != "-" && !strings.HasPrefix(arg, "-"):
			if _, err := os.Stat(arg); err != nil {
				fmt.Fprintf(stderr, "emtrace: unknown subcommand or missing file %q\n", arg)
				usage(stderr)
				return 2
			}
		}
	}
	return runTraces(args, stdout, stderr)
}

// runTraces is the default subcommand: the cascade-trace report.
func runTraces(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 8, "component families listed per histogram")
	noplot := fs.Bool("noplot", false, "skip the time-to-spec scatter plot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		usage(stderr)
		return 2
	}
	var runs []*runStats
	byKey := make(map[runKey]*runStats)
	for _, path := range fs.Args() {
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(stderr, "emtrace: %v\n", err)
				return 1
			}
			defer f.Close()
			r = f
		}
		if err := readTrace(r, byKey, &runs); err != nil {
			fmt.Fprintf(stderr, "emtrace: %s: %v\n", path, err)
			return 1
		}
	}
	if len(runs) == 0 {
		fmt.Fprintln(stderr, "emtrace: no events found")
		return 1
	}
	for _, rs := range runs {
		rs.report(stdout, *top, !*noplot)
	}
	return 0
}

type runKey struct {
	name string
	seq  int64
}

// runStats accumulates the cascade statistics of one Monte-Carlo run.
type runStats struct {
	key    runKey
	trials map[int]bool
	// components is the per-trial component count (from trial_begin).
	components int
	// lengths tallies trials by total failure count (cascade length).
	lengths map[int]int
	// firstCounts/orderSum/orderCnt aggregate per component family: how often
	// the family fails first, and its mean position in the failure order.
	firstCounts map[string]int
	orderSum    map[string]float64
	orderCnt    map[string]int
	// firstTimes/specTimes pair each spec-violating trial's first-failure
	// time with its time-to-spec (seconds).
	firstTimes, specTimes []float64
	// ttfs are the finite system TTFs; infTTF counts never-failed trials.
	ttfs   []float64
	infTTF int

	// per-trial scan state
	curTrial   int
	curOrder   int
	curFirst   float64
	curHasSpec bool
	curSpec    float64
}

// family reduces a component label to its histogram family: the text before
// the "(coords)" suffix — the mesh pattern for grid arrays ("Plus-shaped"),
// "via" for in-array vias. Unlabeled components group under "(unlabeled)".
func family(label string) string {
	if label == "" {
		return "(unlabeled)"
	}
	if i := strings.IndexByte(label, '('); i > 0 {
		return label[:i]
	}
	return label
}

// readTrace folds one JSONL stream into the per-run aggregates. Events of a
// trial are contiguous (the tracer merges per-trial buffers), so per-trial
// state lives in the runStats scan fields.
func readTrace(r io.Reader, byKey map[runKey]*runStats, runs *[]*runStats) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		k := runKey{e.Run, e.Seq}
		rs, ok := byKey[k]
		if !ok {
			rs = &runStats{
				key:         k,
				trials:      make(map[int]bool),
				lengths:     make(map[int]int),
				firstCounts: make(map[string]int),
				orderSum:    make(map[string]float64),
				orderCnt:    make(map[string]int),
				curTrial:    -1,
			}
			byKey[k] = rs
			*runs = append(*runs, rs)
		}
		rs.add(e)
	}
	return sc.Err()
}

func (rs *runStats) add(e trace.Event) {
	rs.trials[e.Trial] = true
	if e.Trial != rs.curTrial {
		rs.curTrial = e.Trial
		rs.curOrder = 0
		rs.curHasSpec = false
	}
	switch e.Type {
	case trace.EvTrialBegin:
		rs.components = e.N
	case trace.EvFail:
		rs.curOrder++
		if rs.curOrder == 1 {
			rs.curFirst = e.T
			rs.firstCounts[family(e.Label)]++
		}
		f := family(e.Label)
		rs.orderSum[f] += float64(rs.curOrder)
		rs.orderCnt[f]++
	case trace.EvSpec:
		if !rs.curHasSpec {
			rs.curHasSpec = true
			rs.curSpec = e.T
		}
	case trace.EvTrialEnd:
		rs.lengths[e.N]++
		if math.IsInf(e.V, 1) {
			rs.infTTF++
		} else {
			rs.ttfs = append(rs.ttfs, e.V)
		}
		if rs.curHasSpec && rs.curOrder > 0 {
			rs.firstTimes = append(rs.firstTimes, rs.curFirst)
			rs.specTimes = append(rs.specTimes, rs.curSpec)
		}
	}
}

func (rs *runStats) report(w io.Writer, top int, plot bool) {
	fmt.Fprintf(w, "=== run %s (seq %d): %d trials", rs.key.name, rs.key.seq, len(rs.trials))
	if rs.components > 0 {
		fmt.Fprintf(w, ", %d components", rs.components)
	}
	fmt.Fprintln(w, " ===")

	if len(rs.ttfs) > 0 {
		sorted := append([]float64(nil), rs.ttfs...)
		sort.Float64s(sorted)
		fmt.Fprintf(w, "system TTF: median %.3g y, min %.3g y, max %.3g y (%d finite, %d never failed)\n",
			phys.SecondsToYears(quantile(sorted, 0.5)),
			phys.SecondsToYears(sorted[0]),
			phys.SecondsToYears(sorted[len(sorted)-1]),
			len(sorted), rs.infTTF)
	} else if rs.infTTF > 0 {
		fmt.Fprintf(w, "system TTF: no trial reached the failure criterion (%d trials)\n", rs.infTTF)
	}

	// Cascade-length distribution.
	fmt.Fprintln(w, "cascade length (failures per trial):")
	lengths := make([]int, 0, len(rs.lengths))
	for l := range rs.lengths {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	maxCount := 0
	for _, c := range rs.lengths {
		if c > maxCount {
			maxCount = c
		}
	}
	for _, l := range lengths {
		c := rs.lengths[l]
		bar := strings.Repeat("#", (c*40+maxCount-1)/maxCount)
		fmt.Fprintf(w, "  %4d %-40s %d\n", l, bar, c)
	}

	// Failure-order histogram by family.
	if len(rs.orderCnt) > 0 {
		fmt.Fprintf(w, "failure order by component family (top %d):\n", top)
		fams := make([]string, 0, len(rs.orderCnt))
		for f := range rs.orderCnt {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool {
			if rs.firstCounts[fams[i]] != rs.firstCounts[fams[j]] {
				return rs.firstCounts[fams[i]] > rs.firstCounts[fams[j]]
			}
			return fams[i] < fams[j]
		})
		if len(fams) > top {
			fams = fams[:top]
		}
		fmt.Fprintf(w, "  %-24s %12s %12s %16s\n", "family", "failures", "first-fails", "mean order pos")
		for _, f := range fams {
			fmt.Fprintf(w, "  %-24s %12d %12d %16.2f\n",
				f, rs.orderCnt[f], rs.firstCounts[f], rs.orderSum[f]/float64(rs.orderCnt[f]))
		}
	}

	// Time-to-spec vs first-failure scatter.
	if plot && len(rs.firstTimes) > 1 {
		xs := make([]float64, len(rs.firstTimes))
		ys := make([]float64, len(rs.specTimes))
		for i := range xs {
			xs[i] = phys.SecondsToYears(rs.firstTimes[i])
			ys[i] = phys.SecondsToYears(rs.specTimes[i])
		}
		p := textplot.Plot{
			Title:  fmt.Sprintf("time to spec violation vs first failure — %s", rs.key.name),
			XLabel: "first component failure (years)",
			YLabel: "spec violation (years)",
			Height: 16,
		}
		if err := p.Add(textplot.Series{Name: "trial", X: xs, Y: ys}); err == nil {
			p.Render(w) //nolint:errcheck // best-effort plot
		}
	}
	fmt.Fprintln(w)
}

// quantile returns the q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
