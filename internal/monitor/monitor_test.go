package monitor

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestStatusEndpoint(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)

	ring := trace.NewRing(4)
	srv, err := Start("localhost:0", Options{Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before any activity: progress and last_cascade are null, and the
	// response is valid JSON.
	var p struct {
		Progress *struct {
			Label      string  `json:"label"`
			Done       int64   `json:"done"`
			Total      int64   `json:"total"`
			ETASeconds float64 `json:"eta_seconds"`
		} `json:"progress"`
		TrialsCompleted int64 `json:"trials_completed"`
		LastCascade     *struct {
			Run      string `json:"run"`
			Failures int    `json:"failures"`
			TTF      any    `json:"ttf_seconds"`
			SpecTime any    `json:"spec_time_seconds"`
		} `json:"last_cascade"`
	}
	if err := json.Unmarshal(get(t, base+"/status"), &p); err != nil {
		t.Fatalf("idle /status not JSON: %v", err)
	}
	if p.Progress != nil || p.LastCascade != nil || p.TrialsCompleted != 0 {
		t.Fatalf("idle status = %+v", p)
	}

	// Feed progress (Start enabled telemetry+status) and a cascade with an
	// infinite TTF — the canonical JSON-hostile value.
	telemetry.Default().ProgressTick("mc", 42, 100)
	tc := trace.New(trace.Options{Ring: ring})
	run := tc.BeginRun("grid:IR-drop", 1)
	tr := run.Trial(0)
	tr.Begin(3)
	tr.Fail(5, 1, "Plus-shaped(0,0)")
	tr.End(math.Inf(1), 1)

	if err := json.Unmarshal(get(t, base+"/status"), &p); err != nil {
		t.Fatalf("active /status not JSON: %v", err)
	}
	if p.Progress == nil || p.Progress.Label != "mc" || p.Progress.Done != 42 || p.Progress.Total != 100 {
		t.Fatalf("progress = %+v", p.Progress)
	}
	if p.TrialsCompleted != 1 || p.LastCascade == nil {
		t.Fatalf("cascade status = %+v", p)
	}
	if p.LastCascade.Run != "grid:IR-drop" || p.LastCascade.Failures != 1 {
		t.Fatalf("last cascade = %+v", p.LastCascade)
	}
	if p.LastCascade.TTF != nil {
		t.Fatalf("infinite TTF rendered as %v, want null", p.LastCascade.TTF)
	}
	if p.LastCascade.SpecTime != nil {
		t.Fatalf("spec time = %v, want null (criterion never fired)", p.LastCascade.SpecTime)
	}
}

// TestStatusETANullWithZeroTrials pins the zero-progress contract: before
// any trial completes there is no basis for an ETA, so eta_seconds must be
// JSON null, not a garbage extrapolation.
func TestStatusETANullWithZeroTrials(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)
	telemetry.SetDefault(nil)

	srv, err := Start("localhost:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	telemetry.Default().ProgressTick("mc", 0, 100)
	var p struct {
		Progress *struct {
			Done       int64 `json:"done"`
			ETASeconds any   `json:"eta_seconds"`
		} `json:"progress"`
	}
	if err := json.Unmarshal(get(t, base+"/status"), &p); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if p.Progress == nil {
		t.Fatal("progress missing after tick")
	}
	if p.Progress.ETASeconds != nil {
		t.Fatalf("zero-trials ETA = %v, want null", p.Progress.ETASeconds)
	}
}

// TestMetricsEndpoint checks /metrics serves a Prometheus exposition
// covering counters, stage histograms and the scrape-time ring gauges.
func TestMetricsEndpoint(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)
	telemetry.SetDefault(nil)

	ring := trace.NewRing(8)
	srv, err := Start("localhost:0", Options{Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.Default()
	reg.Counter(telemetry.ServeSubmitted).Inc()
	reg.Histogram(telemetry.ServeStageSeconds("mc")).Observe(0.25)

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"emvia_serve_jobs_submitted_total 1",
		`emvia_serve_stage_seconds_bucket{stage="mc",le="+Inf"} 1`,
		"emvia_trace_ring_occupancy 0",
		"emvia_trace_ring_capacity 8",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, " NaN\n") || strings.Contains(text, " +Inf\n") || strings.Contains(text, " Inf\n") {
		t.Error("/metrics leaked a non-finite value")
	}
}

// TestCloseBoundedWithStuckClient is the regression test for the unbounded
// shutdown: a client that opens a connection and sends half a request keeps
// the connection in the active state, so a bare http.Server.Shutdown waits
// on it forever. Close must give up after the configured grace period,
// force-close the straggler and return.
func TestCloseBoundedWithStuckClient(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)

	const grace = 100 * time.Millisecond
	srv, err := Start("localhost:0", Options{ShutdownTimeout: grace})
	if err != nil {
		t.Fatal(err)
	}
	// A half-sent request: headers never terminated, so the server considers
	// the connection active until its own ReadHeaderTimeout (5s) fires —
	// long after the shutdown grace period.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /status HTTP/1.1\r\nHost: stuck\r\n")); err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to accept and start reading the request.
	time.Sleep(10 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close with stuck client: %v", err)
		}
	case <-time.After(grace + 2*time.Second):
		t.Fatal("Close did not return within the shutdown bound")
	}
}

// TestCloseGracefulWhenIdle pins the fast path: with no connections open,
// Close returns promptly via the graceful branch.
func TestCloseGracefulWhenIdle(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)

	srv, err := Start("localhost:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, "http://"+srv.Addr()+"/status")
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("idle Close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("idle Close took %v", d)
	}
}

func TestDebugEndpointsServed(t *testing.T) {
	oldReg := telemetry.Default()
	defer telemetry.SetDefault(oldReg)

	srv, err := Start("localhost:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if body := get(t, base+"/debug/pprof/"); len(body) == 0 {
		t.Fatal("/debug/pprof/ empty")
	}
	if body := get(t, base+"/debug/pprof/heap?debug=1"); !strings.Contains(string(body), "# runtime.MemStats") {
		t.Fatal("/debug/pprof/heap?debug=1 prints no runtime.MemStats")
	}
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars: %s, want 404 (the snapshot is served at /metrics)", resp.Status)
	}
	// No ring attached: /status must still answer.
	if err := json.Unmarshal(get(t, base+"/status"), &struct{}{}); err != nil {
		t.Fatalf("/status without ring: %v", err)
	}
}

// TestServeStatusQueueWaitFromStage: /status's queue_wait_seconds is the
// queue-wait job stage's histogram, the one timer that records it.
func TestServeStatusQueueWaitFromStage(t *testing.T) {
	reg := telemetry.New()
	reg.Histogram(telemetry.ServeStageSeconds("queue-wait")).Observe(0.25)
	reg.Histogram(telemetry.ServeStageSeconds("mc")).Observe(1.5)
	out := serveStatus(reg)
	if out == nil || out.QueueWaitSeconds == nil || out.QueueWaitSeconds.Count != 1 {
		t.Fatalf("serve status = %+v, want one queue-wait observation", out)
	}
	if out.StageSeconds["queue-wait"] == nil || out.StageSeconds["mc"] == nil {
		t.Fatalf("stage summaries = %+v", out.StageSeconds)
	}
}
