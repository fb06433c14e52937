// Package monitor serves the live HTTP observability endpoints of the
// long-running CLIs (-http addr):
//
//	/status      JSON: loop progress with ETA, trial throughput, the last
//	             completed cascade's summary (from the trace ring), and
//	             serve-layer latency percentiles when a job server runs
//	/metrics     Prometheus text exposition of the telemetry registry
//	/debug/vars  expvar, including the "emvia" telemetry snapshot
//	/debug/pprof net/http/pprof profiles
//
// The monitor is read-only: it observes the telemetry registry and the trace
// ring, and never feeds anything back into the computation, so enabling it
// cannot perturb paper metrics. Starting a monitor force-enables telemetry
// (with status collection) so /status and /debug/vars have data to serve.
package monitor

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Options configures a monitor.
type Options struct {
	// Ring, when non-nil, supplies the last-cascade summaries for /status.
	Ring *trace.Ring
	// ShutdownTimeout bounds how long Close waits for in-flight requests to
	// finish before force-closing their connections. A stuck client (e.g. a
	// half-sent request or an abandoned pprof profile stream) can otherwise
	// hold a graceful shutdown open indefinitely. Zero selects 2s.
	ShutdownTimeout time.Duration
}

// defaultShutdownTimeout is the Close grace period when Options leaves it 0.
const defaultShutdownTimeout = 2 * time.Second

// Server is a running monitor.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	timeout time.Duration
}

// Register mounts the monitor endpoints (/status, /debug/vars, /debug/pprof)
// on an existing mux, so a host server — emserve's job API — can serve them
// alongside its own routes on one listener. It enables telemetry and status
// collection as a side effect, exactly like Start.
func Register(mux *http.ServeMux, opt Options) {
	reg := telemetry.Enable()
	reg.EnableStatus()
	mux.HandleFunc("/status", statusHandler(opt.Ring))
	mux.HandleFunc("/metrics", metricsHandler(opt.Ring))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start listens on addr (e.g. "localhost:8080", ":0" for an ephemeral port)
// and serves the monitor endpoints until Close. It enables telemetry and
// status collection as a side effect.
func Start(addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	timeout := opt.ShutdownTimeout
	if timeout <= 0 {
		timeout = defaultShutdownTimeout
	}
	s := &Server{ln: ln, timeout: timeout}

	mux := http.NewServeMux()
	Register(mux, opt)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server: a graceful http.Server.Shutdown bounded by the
// configured timeout (in-flight requests get a chance to finish), then a
// hard Close of whatever connections remain — so Close always returns within
// the bound, stuck clients or not. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	if cerr := s.srv.Close(); cerr != nil {
		return cerr
	}
	if err == context.DeadlineExceeded {
		// The bound fired and the stragglers were force-closed — that is the
		// contract working, not a failure to report.
		return nil
	}
	return err
}

// statusPayload is the /status response. Float fields that can be non-finite
// (+Inf TTFs) are rendered through jsonNumber, so the payload is always valid
// JSON.
type statusPayload struct {
	// Progress mirrors telemetry.Status; null before the first tick.
	Progress *progressPayload `json:"progress"`
	// TrialsCompleted counts trials that passed through the trace ring since
	// process start (0 when no ring is attached).
	TrialsCompleted int64 `json:"trials_completed"`
	// LastCascade summarizes the most recently completed trial; null before
	// the first completion or without a ring.
	LastCascade *cascadePayload `json:"last_cascade"`
	// Serve carries the job-service latency summaries; omitted until the
	// first job runs.
	Serve *servePayload `json:"serve,omitempty"`
}

type progressPayload struct {
	Label          string  `json:"label"`
	Done           int64   `json:"done"`
	Total          int64   `json:"total"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds is null before the first completed trial (no basis for an
	// estimate) and whenever the projection is non-finite.
	ETASeconds any `json:"eta_seconds"`
}

type cascadePayload struct {
	Run        string `json:"run"`
	Trial      int    `json:"trial"`
	Failures   int    `json:"failures"`
	TTF        any    `json:"ttf_seconds"`
	FirstComp  int    `json:"first_comp"`
	FirstLabel string `json:"first_label,omitempty"`
	FirstTime  any    `json:"first_time_seconds"`
	SpecTime   any    `json:"spec_time_seconds"` // null when the criterion never fired
	MaxRate    any    `json:"max_aging_rate"`
}

// histSummary is the /status digest of one latency histogram.
type histSummary struct {
	Count int64 `json:"count"`
	Mean  any   `json:"mean"`
	P50   any   `json:"p50"`
	P90   any   `json:"p90"`
	P99   any   `json:"p99"`
}

// servePayload is the /status "serve" section: queue-wait, whole-job and
// per-stage latency percentiles from the telemetry histograms.
type servePayload struct {
	QueueWaitSeconds *histSummary            `json:"queue_wait_seconds,omitempty"`
	JobSeconds       *histSummary            `json:"job_seconds,omitempty"`
	StageSeconds     map[string]*histSummary `json:"stage_seconds,omitempty"`
}

// jsonNumber keeps finite values numeric and renders non-finite ones as
// null, so /status consumers never meet a value JSON cannot carry. (The
// result-manifest convention of "+Inf" strings is a separate, pinned format
// — this is the live-status contract only.)
func jsonNumber(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

// summarize digests a histogram snapshot; nil when it holds no samples.
func summarize(h telemetry.HistogramSnapshot) *histSummary {
	if h.Count == 0 {
		return nil
	}
	return &histSummary{
		Count: h.Count,
		Mean:  jsonNumber(h.Mean),
		P50:   jsonNumber(h.P50),
		P90:   jsonNumber(h.P90),
		P99:   jsonNumber(h.P99),
	}
}

// serveStatus builds the /status serve section from the registry snapshot,
// nil when no job has touched the serve histograms (non-server CLIs).
func serveStatus(s *telemetry.Snapshot) *servePayload {
	out := &servePayload{
		QueueWaitSeconds: summarize(s.Histograms[telemetry.ServeStageSeconds("queue-wait")]),
		JobSeconds:       summarize(s.Histograms[telemetry.ServeJobSeconds]),
	}
	const prefix = "serve.stage_seconds{stage="
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "}") {
			continue
		}
		stage := name[len(prefix) : len(name)-1]
		if sum := summarize(h); sum != nil {
			if out.StageSeconds == nil {
				out.StageSeconds = make(map[string]*histSummary)
			}
			out.StageSeconds[stage] = sum
		}
	}
	if out.QueueWaitSeconds == nil && out.JobSeconds == nil && out.StageSeconds == nil {
		return nil
	}
	return out
}

// statusHandler serves /status against a (possibly nil) trace ring.
func statusHandler(ring *trace.Ring) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeStatus(w, ring) }
}

// metricsHandler serves /metrics: the whole telemetry registry in Prometheus
// text exposition. Ring occupancy is sampled into gauges at scrape time, so
// the ring itself stays telemetry-free.
func metricsHandler(ring *trace.Ring) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		reg := telemetry.Default()
		if ring != nil {
			reg.Gauge(telemetry.TraceRingOccupancy).Set(float64(ring.Occupancy()))
			reg.Gauge(telemetry.TraceRingCapacity).Set(float64(ring.Cap()))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone = nothing to do
	}
}

func writeStatus(w http.ResponseWriter, ring *trace.Ring) {
	var p statusPayload
	if st, ok := telemetry.Default().Status(); ok {
		p.Progress = &progressPayload{
			Label:          st.Label,
			Done:           st.Done,
			Total:          st.Total,
			ElapsedSeconds: st.Elapsed.Seconds(),
		}
		// An ETA extrapolated from zero completed trials is not an estimate;
		// serialize it (and any non-finite projection) as null.
		if st.Done > 0 && st.Total > 0 {
			p.Progress.ETASeconds = jsonNumber(st.ETA.Seconds())
		}
	}
	p.Serve = serveStatus(telemetry.Default().Snapshot())
	p.TrialsCompleted = ring.Total()
	if last, ok := ring.Last(); ok {
		c := &cascadePayload{
			Run:        last.Run,
			Trial:      last.Trial,
			Failures:   last.Failures,
			TTF:        jsonNumber(last.TTF),
			FirstComp:  last.FirstComp,
			FirstLabel: last.FirstLabel,
			FirstTime:  jsonNumber(last.FirstTime),
			MaxRate:    jsonNumber(last.MaxRate),
		}
		if last.SpecTime >= 0 {
			c.SpecTime = jsonNumber(last.SpecTime)
		}
		p.LastCascade = c
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&p) //nolint:errcheck // best-effort response write
}
