package telemetry

import (
	"fmt"
	"os"
	"time"
)

// CLIConfig mirrors the -metrics / -metrics-json / -progress flags the
// binaries share.
type CLIConfig struct {
	// Metrics writes a text report to stderr when the process finishes.
	Metrics bool
	// MetricsJSON, when non-empty, writes a JSON report to this path at
	// finish ("-" selects stdout).
	MetricsJSON string
	// Progress emits periodic progress lines to stderr during long loops.
	Progress bool
}

// enabled reports whether any flag asks for telemetry.
func (c CLIConfig) enabled() bool { return c.Metrics || c.MetricsJSON != "" || c.Progress }

// CLISetup enables telemetry according to the flags and returns a finish
// function that writes the requested end-of-run reports. When no flag is
// set, telemetry stays disabled and finish is a cheap no-op. Reports go to
// stderr or the -metrics-json file — stdout only when explicitly requested
// with "-metrics-json -" — so experiment output remains bit-identical with
// telemetry on.
func CLISetup(cfg CLIConfig) (finish func() error) {
	if !cfg.enabled() {
		return func() error { return nil }
	}
	r := Enable()
	if cfg.Progress {
		r.SetProgress(os.Stderr, 2*time.Second)
	}
	return func() error {
		s := r.Snapshot()
		if cfg.Metrics {
			if err := s.WriteText(os.Stderr); err != nil {
				return fmt.Errorf("telemetry: text report: %w", err)
			}
		}
		if cfg.MetricsJSON != "" {
			if err := writeJSONReport(s, cfg.MetricsJSON); err != nil {
				return fmt.Errorf("telemetry: json report: %w", err)
			}
		}
		return nil
	}
}

// writeJSONReport writes s as JSON to path ("-" selects stdout). The file's
// Close error is returned too: a failed write-back may surface only there.
func writeJSONReport(s *Snapshot, path string) (err error) {
	if path == "-" {
		return s.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return s.WriteJSON(f)
}
