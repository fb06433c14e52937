// Command bench is the end-to-end benchmark of emvia. It runs one workload —
// a stream of analysis jobs from one process, in a closed loop — times every
// job from outside, checks every output, and prints each metric as
// "name value unit" followed by one JSON result line:
//
//	go run . -workload ir-cascade -seed 1 -seconds 20 -trace 0
//	go run . -workload ir-cascade -seed 1 -seconds 20 -trace 1 -spans spans.json
//	go run . compare a.out b.out
//	go run . -update
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) spends half its time on an untraced pass and half repeating the
// same units of work with a span around each call into a layer, and reports
// the per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"emvia/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
}

// runTimeout bounds a whole run, so a hung layer still ends the process.
const runTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: ir-cascade, wl-screened or array-char")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same job sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds (split between the two passes of a traced run)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	scale := fs.String("scale", "full", "job sizes: full, or tiny for the smoke test")
	update := fs.Bool("update", false, "recompute the reference outputs of every input pool and write "+referencePath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.traced = *trace == 1
	cfg.tiny = *scale == "tiny"
	if *scale != "full" && *scale != "tiny" || *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -scale must be full or tiny and -trace 0 or 1")
		return 2
	}
	if *update {
		if err := writeReference(context.Background(), stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, tr, err := measure(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *spansOut != "" && tr != nil {
		if err := tr.write(*spansOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	writeHeader(stdout, cfg)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range res.Metrics.sorted() {
		fmt.Fprintf(stdout, "%s %s %s\n", m.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workload is one traffic mix. A value serves one run: setup builds its
// inputs from the seed and readies what its units need; unit runs one unit of
// work — a job or a characterization round — and records
// its samples; layers totals what a traced pass measured inside the
// workload; finish runs the untimed post-loop checks.
type workload interface {
	setup(ctx context.Context) error
	// unit returns an error only when the run cannot go on; a job that fails
	// is a failed check.
	unit(ctx context.Context, i int, tr *tracer, tl *tally, pr *passResult) error
	layers(pr *passResult, spans []span) map[string]float64
	finish(ctx context.Context, tl *tally) error
	close()
}

var workloads = map[string]func(config) workload{
	"ir-cascade":  newLibrary,
	"wl-screened": newLibrary,
	"array-char":  newArrayChar,
}

// minUnits is the fewest units a timed pass runs, so every metric has samples.
const minUnits = 3

// limit bounds a pass: exactly units units when set (the traced pass repeats
// the untraced pass's units), otherwise a time budget.
type limit struct {
	units  int
	budget time.Duration
}

// more reports whether a pass that has run done units in elapsed time, the
// last one taking last, starts another.
func (l limit) more(done int, elapsed, last time.Duration) bool {
	if l.units > 0 {
		return done < l.units
	}
	return done < minUnits || elapsed+last <= l.budget
}

// passResult is what one pass measured.
type passResult struct {
	units      int
	jobs       []float64 // seconds per job that ran the engine (per round on array-char)
	hits       []float64 // milliseconds per answer served from a cache
	jobRates   []float64 // per unit: jobs answered per second
	trialRates []float64 // per unit: Monte-Carlo trials run per second
	// outputs digests each job's result under a key naming its position in
	// the job sequence, for the traced-equals-untraced check.
	outputs map[string]string
	// host holds the reference-kernel times taken after each unit.
	host *hostGauge
}

func newPassResult() *passResult {
	return &passResult{outputs: make(map[string]string), host: newHostGauge()}
}

// unitDone records the rates of one unit that answered ops jobs and
// ran trials Monte-Carlo trials in d.
func (p *passResult) unitDone(ops, trials int, d time.Duration) {
	p.jobRates = append(p.jobRates, float64(ops)/d.Seconds())
	p.trialRates = append(p.trialRates, float64(trials)/d.Seconds())
}

// tally counts attempted operations and checks, and the ones that failed.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "bench: check failed: "+format+"\n", args...)
	}
}

// result is the JSON line that ends a run's output.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	notes     []string // comment lines on the samples and host speed, for the output header
}

// measure runs one workload end to end: set-up, the timed pass, the traced
// pass when asked, and every correctness check.
//
// Every time metric is the median of its samples over the run, scaled to the
// reference host speed by the kernel times the pass took between its units
// (hostspeed.go); rates are scaled the other way. Set-up is timed again after
// every unit of the untraced pass, so that its samples span the run too.
func measure(ctx context.Context, cfg config, stderr io.Writer) (*result, *tracer, error) {
	var setupTimes []float64
	setUp := func() (workload, error) {
		t0 := time.Now()
		w := workloads[cfg.workload](cfg)
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		return w, nil
	}
	w, err := setUp()
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	probe := func() error {
		p, err := setUp()
		if err == nil {
			p.close()
		}
		return err
	}

	tl := &tally{log: stderr}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		budget /= 2
	}
	a, err := runPass(ctx, w, nil, limit{budget: budget}, tl, probe)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	var b *passResult
	var tel *telemetryDelta
	if cfg.traced {
		// No set-ups between traced units: their work would land in the
		// program counters the traced pass reads.
		telemetry.Enable()
		tr = newTracer()
		before := telemetry.Default().Snapshot()
		if b, err = runPass(ctx, w, tr, limit{units: a.units}, tl, nil); err != nil {
			return nil, nil, err
		}
		tel = &telemetryDelta{before: before, after: telemetry.Default().Snapshot()}
		for k, want := range a.outputs {
			got, ok := b.outputs[k]
			tl.check(ok && got == want, "traced job %s: output %s, untraced %s", k, got, want)
		}
	}
	if err := w.finish(ctx, tl); err != nil {
		return nil, nil, err
	}

	fa := a.host.factor()
	m := metrics{}
	if cfg.traced {
		spans := tr.snapshot()
		m = layerMetrics(a, b, spans, tel, w.layers(b, spans))
		m.atReferenceSpeed(b.host.factor())
	} else {
		m.set("setup_s", median(setupTimes))
		m.set("job_s_p50", median(a.jobs))
		m.set("hit_ms_p50", median(a.hits))
		m.set("jobs_per_s", median(a.jobRates))
		m.set("trials_per_s", median(a.trialRates))
		m.set("peak_rss_mb", peakRSSMB())
	}
	notes := []string{
		fmt.Sprintf("# samples setups=%d units=%d jobs=%d hits=%d kernels=%d", len(setupTimes), a.units, len(a.jobs), len(a.hits), len(a.host.samples)),
		fmt.Sprintf("# host kernel_ms_p50=%g reference_ms=%g factor=%g", median(a.host.samples), refKernelMS, fa),
	}
	if cfg.traced {
		notes = append(notes, fmt.Sprintf("# traced jobs=%d kernels=%d factor=%g", len(b.jobs), len(b.host.samples), b.host.factor()))
	} else {
		notes = append(notes, "# unscaled "+m.format())
		m.atReferenceSpeed(fa)
	}
	if ctx.Err() != nil {
		return nil, nil, errors.New("run exceeded its time limit")
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m, notes: notes}, tr, nil
}

// runPass runs units of w until lim stops it. After each one it times the
// reference kernel and then calls probe when it is set.
func runPass(ctx context.Context, w workload, tr *tracer, lim limit, tl *tally, probe func() error) (*passResult, error) {
	pr := newPassResult()
	start := time.Now()
	var last time.Duration
	for lim.more(pr.units, time.Since(start), last) {
		t0 := time.Now()
		if err := w.unit(ctx, pr.units, tr, tl, pr); err != nil {
			return nil, err
		}
		pr.units++
		pr.host.after(time.Since(t0))
		if probe != nil {
			if err := probe(); err != nil {
				return nil, err
			}
		}
		last = time.Since(t0)
	}
	return pr, ctx.Err()
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeHeader records the host and build a run measured on.
func writeHeader(w io.Writer, cfg config) {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	fmt.Fprintf(w, "# emvia-bench workload=%s seed=%d seconds=%g trace=%d scale=%s num_cpu=%d gomaxprocs=%d go=%s vcs=%s%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, scaleName(cfg.tiny), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, modified)
}
