package cliobs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// isolateTelemetry gives the test a process with telemetry and tracing off,
// restoring the previous registry afterwards.
func isolateTelemetry(t *testing.T) {
	t.Helper()
	old := telemetry.Default()
	t.Cleanup(func() { telemetry.SetDefault(old) })
	telemetry.SetDefault(nil)
	if trace.Enabled() {
		t.Fatal("tracer installed at test start")
	}
}

// parseFlags registers every observability flag on a fresh set and parses
// args, so the tests also pin the flag names.
func parseFlags(t *testing.T, args ...string) (Config, *flag.FlagSet) {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// TestSetupJSONReport runs the -metrics-json path: finish writes a report
// that parses back with the recorded counter, and an unwritable path is an
// error rather than a silent success.
func TestSetupJSONReport(t *testing.T) {
	isolateTelemetry(t)
	path := filepath.Join(t.TempDir(), "metrics.json")
	c, fs := parseFlags(t, "-metrics-json", path)
	finish, err := Setup(c, "test", fs)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Default().Counter(telemetry.CGSolves).Add(5)
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("json report does not parse: %v", err)
	}
	if back.Counters[telemetry.CGSolves] != 5 {
		t.Fatalf("reported counter = %d, want 5", back.Counters[telemetry.CGSolves])
	}

	bad := filepath.Join(t.TempDir(), "missing", "metrics.json")
	c, fs = parseFlags(t, "-metrics-json", bad)
	finish, err = Setup(c, "test", fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(); err == nil {
		t.Fatal("finish reported success for a report it could not create")
	}
}

// TestSetupWritesEveryArtifact runs Setup with a JSONL trace, a Chrome trace
// and a JSON metrics report: finish must write each artifact plus its
// provenance manifest, and uninstall the tracer.
func TestSetupWritesEveryArtifact(t *testing.T) {
	isolateTelemetry(t)
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "run.trace.jsonl")
	chrome := filepath.Join(dir, "run.trace.json")
	metrics := filepath.Join(dir, "run.metrics.json")
	c, fs := parseFlags(t, "-trace", jsonl, "-trace-chrome", chrome, "-metrics-json", metrics, "-engine", "both")
	finish, err := Setup(c, "test", fs)
	if err != nil {
		t.Fatal(err)
	}
	run := trace.Default().BeginRun("r", 1)
	tr := run.Trial(0)
	tr.Begin(2)
	tr.Fail(1e8, 1, "via(0,1)")
	tr.SpecViolation(1e8, 1)
	tr.End(1e8, 1)
	run.End()
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if trace.Enabled() {
		t.Fatal("finish left the tracer installed")
	}

	for path, want := range map[string]string{
		jsonl:   `"type":"fail"`,
		chrome:  `"name":"cascade"`,
		metrics: `"counters"`,
	} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(buf), want) {
			t.Errorf("%s lacks %s:\n%.400s", filepath.Base(path), want, buf)
		}
		mbuf, err := os.ReadFile(trace.ManifestPath(path))
		if err != nil {
			t.Fatalf("manifest beside %s: %v", filepath.Base(path), err)
		}
		var m trace.Manifest
		if err := json.Unmarshal(mbuf, &m); err != nil {
			t.Fatal(err)
		}
		if m.Command != "test" || m.Engine != "both" || len(m.Artifacts) != 3 || m.Config["trace"] != jsonl {
			t.Errorf("manifest beside %s = %+v", filepath.Base(path), m)
		}
	}
}
