package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emvia/internal/serve"
	"emvia/internal/trace"
)

// syntheticTrace emits a two-trial run through the real tracer so the test
// exercises the exact JSONL shape emtrace consumes in the field.
func syntheticTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(trace.Options{Sinks: []trace.Sink{trace.NewJSONLSink(&buf)}})
	run := tr.BeginRun("array:Plus-shaped:4x4", 2)
	t0 := run.Trial(0)
	t0.Begin(16)
	t0.Fail(1e8, 3, "via(3,0)")
	t0.SpecViolation(1.5e8, 1)
	t0.Fail(2e8, 5, "via(1,1)")
	t0.End(2e8, 2)
	t1 := run.Trial(1)
	t1.Begin(16)
	t1.Fail(3e8, 0, "Plus-shaped(0,0)")
	t1.End(math.Inf(1), 1)
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestReadTraceStats(t *testing.T) {
	var runs []*runStats
	byKey := make(map[runKey]*runStats)
	if err := readTrace(bytes.NewReader(syntheticTrace(t)), byKey, &runs); err != nil {
		t.Fatalf("readTrace: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	rs := runs[0]
	if rs.key.name != "array:Plus-shaped:4x4" {
		t.Errorf("run name = %q", rs.key.name)
	}
	if len(rs.trials) != 2 {
		t.Errorf("trials = %d, want 2", len(rs.trials))
	}
	if rs.components != 16 {
		t.Errorf("components = %d, want 16", rs.components)
	}
	if rs.lengths[2] != 1 || rs.lengths[1] != 1 {
		t.Errorf("cascade lengths = %v, want {1:1 2:1}", rs.lengths)
	}
	if rs.firstCounts["via"] != 1 || rs.firstCounts["Plus-shaped"] != 1 {
		t.Errorf("first-fail families = %v", rs.firstCounts)
	}
	if rs.orderCnt["via"] != 2 || rs.orderSum["via"] != 3 { // positions 1 and 2
		t.Errorf("via order stats = %d/%v", rs.orderCnt["via"], rs.orderSum["via"])
	}
	if rs.infTTF != 1 || len(rs.ttfs) != 1 || rs.ttfs[0] != 2e8 {
		t.Errorf("TTFs = %v, inf = %d", rs.ttfs, rs.infTTF)
	}
	if len(rs.firstTimes) != 1 || rs.firstTimes[0] != 1e8 || rs.specTimes[0] != 1.5e8 {
		t.Errorf("spec scatter points = %v vs %v", rs.firstTimes, rs.specTimes)
	}
}

// TestReadTraceRejectsSpanLine: traces from before the span stream was
// removed carry "span" lines; the reader refuses them and names the line,
// rather than skipping data it no longer understands.
func TestReadTraceRejectsSpanLine(t *testing.T) {
	lines := bytes.SplitAfter(syntheticTrace(t), []byte("\n"))
	span := []byte(`{"type":"span","label":"fem.cg","wall_ns":1000,"dur_ns":500}` + "\n")
	in := bytes.Join([][]byte{lines[0], lines[1], span, lines[2]}, nil)
	var runs []*runStats
	err := readTrace(bytes.NewReader(in), make(map[runKey]*runStats), &runs)
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), `"span"`) {
		t.Fatalf("readTrace error = %v, want a line-3 error naming \"span\"", err)
	}
}

func TestReportRenders(t *testing.T) {
	var runs []*runStats
	byKey := make(map[runKey]*runStats)
	if err := readTrace(bytes.NewReader(syntheticTrace(t)), byKey, &runs); err != nil {
		t.Fatalf("readTrace: %v", err)
	}
	var out strings.Builder
	for _, rs := range runs {
		rs.report(&out, 8, true)
	}
	got := out.String()
	for _, want := range []string{
		"run array:Plus-shaped:4x4",
		"2 trials",
		"cascade length",
		"failure order by component family",
		"Plus-shaped",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q in:\n%s", want, got)
		}
	}
}

// TestRunExitCodes pins the CLI contract: unknown subcommands and bad flags
// are loud usage errors (exit 2), not silent empty reports.
func TestRunExitCodes(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(tracePath, syntheticTrace(t), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown subcommand", []string{"bogus-subcommand"}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag", tracePath}, 2},
		{"ledger no args", []string{"ledger"}, 2},
		{"ledger unknown flag", []string{"ledger", "-nope"}, 2},
		{"missing trace file treated as subcommand", []string{"no/such/file.jsonl"}, 2},
		{"ledger missing file", []string{"ledger", "no/such/ledger.jsonl"}, 1},
		{"help", []string{"help"}, 0},
		{"trace report", []string{"-noplot", tracePath}, 0},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, got, tc.want, stderr.String())
		}
		if tc.want == 2 && !strings.Contains(strings.ToLower(stderr.String()), "usage") {
			t.Errorf("%s: usage not printed on stderr: %s", tc.name, stderr.String())
		}
	}
}

// syntheticLedger writes a small ledger through the real serve.Ledger so the
// subcommand test exercises the exact JSONL shape emserve produces.
func syntheticLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := serve.NewLedger(path)
	recs := []serve.LedgerRecord{
		{
			Schema: serve.LedgerSchemaVersion, Time: "2026-08-08T10:00:00Z",
			ID: "job-1", ContentHash: "aaa", Engine: "mc", Outcome: "done",
			Attempts: 1, TrialsDone: 64, TrialsTotal: 64,
			QueueWaitSeconds: 0.01, WallSeconds: 1.5,
			Shards: 4, ShardsReissued: 1, MergeSeconds: 0.02,
			StageSeconds: map[string]float64{"mc": 1.2, "factorize": 0.2, "manifest": 0.05, "merge": 0.02},
		},
		{
			Schema: serve.LedgerSchemaVersion, Time: "2026-08-08T10:00:05Z",
			ID: "job-2", ContentHash: "bbb", Engine: "mc", Outcome: "failed",
			Error: "boom", Attempts: 2, Retries: 1,
			QueueWaitSeconds: 0.02, WallSeconds: 0.4,
			StageSeconds: map[string]float64{"resolve": 0.1},
		},
		{
			Schema: serve.LedgerSchemaVersion, Time: "2026-08-08T10:00:06Z",
			ID: "job-3", ContentHash: "aaa", Engine: "mc", Outcome: "done",
			Dedup: "result-cache", TrialsDone: 64, TrialsTotal: 64,
		},
	}
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return path
}

// TestLedgerSubcommand runs `emtrace ledger` over a synthetic ledger and
// checks the report covers outcomes, dedup rate, throughput, latency
// percentiles and the stage breakdown.
func TestLedgerSubcommand(t *testing.T) {
	path := syntheticLedger(t)
	var stdout, stderr strings.Builder
	if got := run([]string{"ledger", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"run ledger: 3 records",
		"done=2",
		"failed=1",
		"dedup rate: 1/3",
		"trials: 128/128 completed",
		"sharding: 1 jobs sharded, 4 shards/job, 1 reissued, merge 0.02s total",
		"throughput: 3 jobs",
		"queue-wait",
		"wall-clock",
		"stage breakdown",
		"mc",
		"factorize",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger report missing %q in:\n%s", want, out)
		}
	}
}

// TestLedgerSubcommandCorruptLine: a torn trailing line is reported as
// skipped, and the intact records still render.
func TestLedgerSubcommandCorruptLine(t *testing.T) {
	path := syntheticLedger(t)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"torn`) //nolint:errcheck
	f.Close()
	var stdout, stderr strings.Builder
	if got := run([]string{"ledger", path}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, stderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 corrupt lines skipped") {
		t.Errorf("skipped count missing in:\n%s", stdout.String())
	}
}

func TestFamily(t *testing.T) {
	cases := map[string]string{
		"via(3,0)":          "via",
		"Plus-shaped(2,1)":  "Plus-shaped",
		"":                  "(unlabeled)",
		"bare":              "bare",
		"(weird)":           "(weird)",
		"T-shaped(0,0)":     "T-shaped",
		"Stacked-via(1,1)":  "Stacked-via",
		"Grid-like(10,10)":  "Grid-like",
		"Plus-shaped(0,15)": "Plus-shaped",
	}
	for in, want := range cases {
		if got := family(in); got != want {
			t.Errorf("family(%q) = %q, want %q", in, got, want)
		}
	}
}
