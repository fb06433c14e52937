// Package cliobs bundles the observability wiring the emgrid/emsweep/
// paperfigs binaries share: the telemetry flags (-metrics, -metrics-json,
// -progress), the structured-trace flags (-trace, -trace-chrome,
// -trace-nosamples), the live HTTP monitor (-http), and the run-provenance
// manifest written alongside every trace or metrics artifact.
package cliobs

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/monitor"
	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Config is the combined observability flag surface.
type Config struct {
	// Metrics prints a text telemetry report to stderr at finish.
	Metrics bool
	// MetricsJSON writes a JSON telemetry report to this path at finish
	// ("-" = stdout).
	MetricsJSON string
	// Progress prints periodic progress lines to stderr during long loops.
	Progress bool
	// Trace is the JSONL failure-cascade trace path ("-" = stdout).
	Trace string
	// TraceChrome is the Chrome trace_event JSON trace path.
	TraceChrome string
	// TraceNoSamples drops per-component TTF-sample events from the trace.
	TraceNoSamples bool
	// HTTPAddr serves /status, /metrics and /debug/pprof when
	// non-empty; the tracer then keeps a live ring of the last
	// trace.LiveRingSize trials.
	HTTPAddr string
	// Engine selects the analysis engine (mc|steady|both); Setup validates
	// it and records the resolved value in the run manifest. Commands
	// resolve their own copy with mc.ParseEngine.
	Engine string
}

// RegisterFlags declares every observability flag on fs.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Metrics, "metrics", false, "print a telemetry report to stderr on exit")
	fs.StringVar(&c.MetricsJSON, "metrics-json", "", `write a JSON telemetry report to this file on exit ("-" = stdout)`)
	fs.BoolVar(&c.Progress, "progress", false, "print periodic progress lines to stderr during long Monte-Carlo runs")
	fs.StringVar(&c.Trace, "trace", "", "write a JSONL failure-cascade trace to `file` (\"-\" = stdout)")
	fs.StringVar(&c.TraceChrome, "trace-chrome", "", "write a Chrome trace_event JSON trace to `file` (chrome://tracing, Perfetto)")
	fs.BoolVar(&c.TraceNoSamples, "trace-nosamples", false, "omit per-component TTF sample events from the trace")
	fs.StringVar(&c.HTTPAddr, "http", "", "serve the live monitor (/status, /metrics, /debug/pprof) on `addr`")
	fs.StringVar(&c.Engine, "engine", "mc", "analysis engine: mc (full Monte Carlo), steady (linear-time steady-state screen only), or both (the screen prunes the Monte Carlo to the mortal subset)")
}

// active is the manifest of the current run, readable by RecordFlags until
// the finish function runs.
var active atomic.Pointer[trace.Manifest]

// Setup wires everything the config asks for and returns a finish function
// to run before process exit: it writes the telemetry reports, flushes and
// closes the trace sinks, writes the provenance manifests beside every
// artifact, and stops the monitor. fs is the parsed top-level flag set,
// captured into the manifest (nil skips flag capture); command names the
// binary in the manifest.
//
// Reports go to stderr or the -metrics-json file — stdout only when asked
// for with "-metrics-json -" — so experiment output stays bit-identical with
// observability on.
func Setup(c Config, command string, fs *flag.FlagSet) (finish func() error, err error) {
	engine, err := mc.ParseEngine(c.Engine)
	if err != nil {
		return nil, fmt.Errorf("-engine: %w", err)
	}

	m := trace.NewManifest(command, os.Args[1:])
	if fs != nil {
		m.Config = trace.FlagConfig(fs)
	}
	m.MaterialHash = core.MaterialHash()
	m.StressCacheKeyVersion = core.StressCacheKeyVersion()
	m.Engine = engine
	if p := c.MetricsJSON; p != "" && p != "-" {
		m.Artifacts = append(m.Artifacts, p)
	}

	tracer, err := startTracer(c, m)
	if err != nil {
		return nil, err
	}
	var reg *telemetry.Registry
	if c.Metrics || c.MetricsJSON != "" || c.Progress {
		reg = telemetry.Enable()
		if c.Progress {
			reg.SetProgress(os.Stderr, 2*time.Second)
		}
	}

	var mon *monitor.Server
	if c.HTTPAddr != "" {
		mon, err = monitor.Start(c.HTTPAddr, monitor.Options{Ring: tracer.Ring()})
		if err != nil {
			stopTracer(tracer) //nolint:errcheck // already failing
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: monitor listening on http://%s\n", command, mon.Addr())
	}

	active.Store(m)
	return func() error {
		active.Store(nil)
		// Telemetry reports first: the -metrics-json artifact must exist
		// before its manifest is written beside it.
		err := writeReports(c, reg)
		if terr := stopTracer(tracer); err == nil {
			err = terr
		}
		if merr := m.WriteBeside(); err == nil {
			err = merr
		}
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// startTracer opens the trace sinks the config names, records them in the
// manifest, and installs the process-wide tracer. It installs nothing (and
// returns nil) when no sink is asked for and no monitor needs the ring.
func startTracer(c Config, m *trace.Manifest) (*trace.Tracer, error) {
	var (
		sinks []trace.Sink
		files []*os.File
	)
	create := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			for _, f := range files {
				f.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
		files = append(files, f)
		m.Artifacts = append(m.Artifacts, path)
		return f, nil
	}
	switch c.Trace {
	case "":
	case "-":
		sinks = append(sinks, trace.NewJSONLSink(os.Stdout))
		m.Artifacts = append(m.Artifacts, c.Trace)
	default:
		f, err := create(c.Trace)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, trace.NewJSONLSink(f))
	}
	if c.TraceChrome != "" {
		f, err := create(c.TraceChrome)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, trace.NewChromeSink(f))
	}
	var ring *trace.Ring
	if c.HTTPAddr != "" {
		ring = trace.NewRing(trace.LiveRingSize)
	}
	if sinks == nil && ring == nil {
		return nil, nil
	}
	t := trace.New(trace.Options{Sinks: sinks, Ring: ring, DisableSamples: c.TraceNoSamples})
	trace.SetDefault(t)
	return t, nil
}

// stopTracer uninstalls the process-wide tracer and flushes and closes its
// sinks. Safe on nil.
func stopTracer(t *trace.Tracer) error {
	if t == nil {
		return nil
	}
	trace.SetDefault(nil)
	return t.Close()
}

// writeReports writes the end-of-run telemetry reports the config asks for.
// reg is nil when telemetry is off.
func writeReports(c Config, reg *telemetry.Registry) error {
	if reg == nil {
		return nil
	}
	s := reg.Snapshot()
	if c.Metrics {
		if err := s.WriteText(os.Stderr); err != nil {
			return fmt.Errorf("telemetry: text report: %w", err)
		}
	}
	if c.MetricsJSON == "" {
		return nil
	}
	if err := writeJSONReport(s, c.MetricsJSON); err != nil {
		return fmt.Errorf("telemetry: json report: %w", err)
	}
	return nil
}

// writeJSONReport writes s as JSON to path ("-" selects stdout). The file's
// Close error is returned too: a failed write-back may surface only there.
func writeJSONReport(s *telemetry.Snapshot, path string) (err error) {
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

// RecordFlags merges a subcommand's parsed flag set into the active run
// manifest (emgrid parses per-subcommand flags after Setup), lifting the
// reproducibility knobs — trials/seed — into their dedicated manifest
// fields. No-op when no run is active.
func RecordFlags(fs *flag.FlagSet) {
	m := active.Load()
	if m == nil || fs == nil {
		return
	}
	if m.Config == nil {
		m.Config = make(map[string]string)
	}
	for k, v := range trace.FlagConfig(fs) {
		m.Config[k] = v
	}
	if v, err := strconv.Atoi(m.Config["trials"]); err == nil {
		m.Trials = v
	}
	if v, err := strconv.ParseInt(m.Config["seed"], 10, 64); err == nil {
		m.Seed = v
	}
	if v := m.Config["engine"]; v != "" {
		if engine, err := mc.ParseEngine(v); err == nil {
			m.Engine = engine
		}
	}
}

// RecordArtifact registers a result file produced after Setup (e.g. the
// -engine=steady classification JSON) with the active run manifest, so a
// provenance copy is written beside it at finish. No-op when no run is
// active or the path is stdout.
func RecordArtifact(path string) {
	m := active.Load()
	if m == nil || path == "" || path == "-" {
		return
	}
	m.Artifacts = append(m.Artifacts, path)
}

// RecordScreen attaches a steady-state screening summary to the active run
// manifest, so every artifact of a -engine=steady/both run carries the
// classification the results were pruned against. No-op when no run is
// active.
func RecordScreen(info *trace.ScreenInfo) {
	if m := active.Load(); m != nil {
		m.Screen = info
	}
}
