package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCLISetupJSONReport runs the -metrics-json path: finish writes a report
// that parses back with the recorded counter, and an unwritable path is an
// error rather than a silent success.
func TestCLISetupJSONReport(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)

	path := filepath.Join(t.TempDir(), "metrics.json")
	finish := CLISetup(CLIConfig{MetricsJSON: path})
	Default().Counter(CGSolves).Add(5)
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("json report does not parse: %v", err)
	}
	if back.Counters[CGSolves] != 5 {
		t.Fatalf("reported counter = %d, want 5", back.Counters[CGSolves])
	}

	bad := filepath.Join(t.TempDir(), "missing", "metrics.json")
	if err := CLISetup(CLIConfig{MetricsJSON: bad})(); err == nil {
		t.Fatal("finish reported success for a report it could not create")
	}
}
