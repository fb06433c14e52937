package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// tinySpec is a real end-to-end job small enough for the race detector:
// a 6×6 synthetic grid, weakest-link criterion (every trial's TTF is
// finite), six trials.
const tinySpec = `{"engine":"mc","criterion":"wl","grid":{"name":"PG1","nx":6,"ny":6,"pad_period":3,"calibrate_ir":0.05},"trials":6,"seed":7}`

// newTestServer installs fresh telemetry and trace globals (so counter
// assertions see exactly this test's traffic) and boots a server plus its
// httptest host. Serve tests share process-wide state and therefore must
// not run in parallel with each other.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(256), DisableSamples: true}))
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		ts.Close()
		telemetry.SetDefault(nil)
		trace.SetDefault(nil)
	})
	return s, ts
}

func counter(name string) int64 {
	return telemetry.Default().Counter(name).Value()
}

// submit POSTs a spec body and decodes the response envelope.
func submit(t *testing.T, ts *httptest.Server, body string) (int, submitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: code %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return statusResponse{}
}

// getResult fetches /result, returning the status code and body.
func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading result: %v", err)
	}
	return resp.StatusCode, body
}

// TestSubmitPollResult is the happy path plus the dedup contract, end to
// end through the real engine: submit → poll → manifest, then the same
// spec again — served from the result cache with exactly one solve ever
// recorded, and byte-identical manifest bytes.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 2})

	code, sub, _ := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, want 202", code)
	}
	if sub.ID == "" || sub.Hash == "" || sub.State != StateQueued {
		t.Fatalf("submit response %+v", sub)
	}

	st := waitTerminal(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %q (error %q), want done", st.State, st.Error)
	}
	if st.TrialsDone != 6 || st.TrialsTotal != 6 {
		t.Errorf("progress %d/%d, want 6/6", st.TrialsDone, st.TrialsTotal)
	}
	if st.StartedAt == "" {
		t.Error("started_at empty for an executed job")
	}

	rcode, body := getResult(t, ts, sub.ID)
	if rcode != http.StatusOK {
		t.Fatalf("result: code %d, body %s", rcode, body)
	}
	var m ResultManifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding manifest: %v", err)
	}
	if m.ContentHash != sub.Hash {
		t.Errorf("manifest hash %s, submit hash %s", m.ContentHash, sub.Hash)
	}
	if m.Engine != "mc" || m.Trials != 6 || m.FiniteTrials != 6 {
		t.Errorf("manifest engine=%s trials=%d finite=%d, want mc/6/6", m.Engine, m.Trials, m.FiniteTrials)
	}
	if p50 := m.PercentilesYears["p50"]; !(p50 > 0) {
		t.Errorf("p50 = %g, want positive", p50)
	}
	if m.Spec == nil || m.Spec.Trials != 6 || m.Spec.Seed != 7 {
		t.Errorf("manifest spec not the resolved submission: %+v", m.Spec)
	}

	// Duplicate submission: answered from the result cache, zero new solves.
	solvesBefore := counter(telemetry.ServeSolves)
	code2, sub2, _ := submit(t, ts, tinySpec)
	if code2 != http.StatusOK || sub2.Dedup != "result-cache" || sub2.State != StateDone {
		t.Fatalf("duplicate submit: code %d resp %+v, want 200 result-cache done", code2, sub2)
	}
	if sub2.Hash != sub.Hash {
		t.Errorf("duplicate hash %s, want %s", sub2.Hash, sub.Hash)
	}
	rcode2, body2 := getResult(t, ts, sub2.ID)
	if rcode2 != http.StatusOK || string(body2) != string(body) {
		t.Errorf("dedup'd manifest differs from the original (codes %d/%d)", rcode, rcode2)
	}
	if got := counter(telemetry.ServeSolves); got != solvesBefore {
		t.Errorf("duplicate submission ran %d extra solves", got-solvesBefore)
	}
	if got := counter(telemetry.ServeSolves); got != 1 {
		t.Errorf("total solves %d, want exactly 1", got)
	}
	if got := counter(telemetry.ServeDedupCacheHits); got != 1 {
		t.Errorf("dedup cache hits %d, want 1", got)
	}
}

// TestManifestWorkerInvariance pins the determinism contract the content
// hash relies on: the same spec solved under different per-job worker
// budgets (mc's per-trial seed splitting) yields byte-identical manifests.
func TestManifestWorkerInvariance(t *testing.T) {
	var manifests []string
	for _, workers := range []int{1, 2} {
		func() {
			telemetry.SetDefault(telemetry.New())
			trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(256), DisableSamples: true}))
			defer telemetry.SetDefault(nil)
			defer trace.SetDefault(nil)
			s := NewServer(Config{JobWorkers: workers})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Drain(ctx) //nolint:errcheck
			}()
			code, sub, _ := submit(t, ts, tinySpec)
			if code != http.StatusAccepted {
				t.Fatalf("workers=%d: submit code %d", workers, code)
			}
			if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
				t.Fatalf("workers=%d: state %q error %q", workers, st.State, st.Error)
			}
			rcode, body := getResult(t, ts, sub.ID)
			if rcode != http.StatusOK {
				t.Fatalf("workers=%d: result code %d", workers, rcode)
			}
			manifests = append(manifests, string(body))
		}()
	}
	if manifests[0] != manifests[1] {
		t.Errorf("manifests differ between worker budgets 1 and 2:\n--- workers=1\n%s\n--- workers=2\n%s", manifests[0], manifests[1])
	}
}

// gatedRunner returns a stub Runner that signals each start and blocks
// until released (or its context ends).
func gatedRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		started <- opts.Label
		select {
		case <-release:
			return &runOutput{materialHash: "test"}, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", ctx.Err())
		}
	}
}

// specWithSeed derives distinct-content specs from tinySpec.
func specWithSeed(seed int) string {
	return strings.Replace(tinySpec, `"seed":7`, fmt.Sprintf(`"seed":%d`, seed), 1)
}

// TestInflightDedup: a submission identical to a running job attaches to
// it — same job ID, no second execution.
func TestInflightDedup(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Runner: gatedRunner(started, release)})

	code, first, _ := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", code)
	}
	<-started // the job is now running

	code2, second, _ := submit(t, ts, tinySpec)
	if code2 != http.StatusOK || second.Dedup != "in-flight" {
		t.Fatalf("duplicate submit: code %d resp %+v, want 200 in-flight", code2, second)
	}
	if second.ID != first.ID {
		t.Errorf("duplicate got job %s, want the incumbent %s", second.ID, first.ID)
	}
	if got := counter(telemetry.ServeDedupInflightHits); got != 1 {
		t.Errorf("inflight dedup hits %d, want 1", got)
	}

	close(release)
	if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("job state %q, want done", st.State)
	}
	if got := counter(telemetry.ServeSolves); got != 1 {
		t.Errorf("solves %d, want exactly 1", got)
	}
}

// TestQueueFull: submissions beyond the queue capacity get 429 with a
// Retry-After hint, and are not admitted.
func TestQueueFull(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{QueueCap: 1, Runner: gatedRunner(started, release)})

	// First job occupies the executor, second the single queue slot.
	if code, _, _ := submit(t, ts, specWithSeed(1)); code != http.StatusAccepted {
		t.Fatalf("job 1: code %d", code)
	}
	<-started
	if code, _, _ := submit(t, ts, specWithSeed(2)); code != http.StatusAccepted {
		t.Fatalf("job 2: code %d", code)
	}

	code, _, hdr := submit(t, ts, specWithSeed(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if got := counter(telemetry.ServeRejectedFull); got != 1 {
		t.Errorf("rejected_queue_full %d, want 1", got)
	}

	close(release)
}

// TestProgressWhileRunning: a running job's trials_done is the count of
// trials its run has completed through the tracer at the moment the status
// is read, and the total once the job is done.
func TestProgressWhileRunning(t *testing.T) {
	const k = 4
	reached := make(chan struct{})
	release := make(chan struct{})
	runner := func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		run := trace.Default().BeginRun(opts.Label, spec.Trials)
		for i := 0; i < k; i++ {
			tr := run.Trial(i)
			tr.Begin(1)
			tr.End(float64(i+1)*1e7, 1)
		}
		close(reached)
		select {
		case <-release:
			run.End()
			return &runOutput{materialHash: "test"}, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", ctx.Err())
		}
	}
	_, ts := newTestServer(t, Config{Runner: runner})
	// Runs before the server drains, so a failed check cannot hang the run.
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	code, sub, _ := submit(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	<-reached
	st := getStatus(t, ts, sub.ID)
	if st.State != StateRunning || st.TrialsDone != k || st.TrialsTotal != 6 {
		t.Fatalf("while running: state %q, progress %d/%d, want running %d/6", st.State, st.TrialsDone, st.TrialsTotal, k)
	}
	close(release)
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone || st.TrialsDone != 6 {
		t.Fatalf("after release: state %q (error %q), progress %d/%d, want done 6/6", st.State, st.Error, st.TrialsDone, st.TrialsTotal)
	}
}

// TestJobDeadline: a job that exceeds its own deadline lands in
// deadline_exceeded, its result endpoint answers 504, and the status
// endpoint reports the partial trial progress observed before the cut.
func TestJobDeadline(t *testing.T) {
	runner := func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		// Complete three trials through the real tracer (they land in the
		// ring exactly like engine trials), then hang until the deadline.
		run := trace.Default().BeginRun(opts.Label, 3)
		for i := 0; i < 3; i++ {
			tr := run.Trial(i)
			tr.Begin(1)
			tr.End(float64(i+1)*1e7, 1)
		}
		run.End()
		<-ctx.Done()
		return nil, fmt.Errorf("stub: canceled at trial 3: %w", ctx.Err())
	}
	_, ts := newTestServer(t, Config{Runner: runner})

	spec := strings.Replace(tinySpec, `"trials":6`, `"trials":100,"timeout_seconds":0.3`, 1)
	code, sub, _ := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	st := waitTerminal(t, ts, sub.ID)
	if st.State != StateDeadline {
		t.Fatalf("state %q (error %q), want deadline_exceeded", st.State, st.Error)
	}
	if st.TrialsDone != 3 || st.TrialsTotal != 100 {
		t.Errorf("partial progress %d/%d, want 3/100", st.TrialsDone, st.TrialsTotal)
	}
	rcode, _ := getResult(t, ts, sub.ID)
	if rcode != http.StatusGatewayTimeout {
		t.Errorf("result code %d, want 504", rcode)
	}
	if got := counter(telemetry.ServeDeadlineExceeded); got != 1 {
		t.Errorf("deadline_exceeded count %d, want 1", got)
	}
}

// TestPersistErrorCountedOnce: a manifest that cannot be written to the
// result directory still completes the job from memory. The error is
// counted as a persist error, never as a failed job. The result directory
// sits under a regular file, so creating it fails even for root.
func TestPersistErrorCountedOnce(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		return &runOutput{materialHash: "test"}, nil
	}
	s, ts := newTestServer(t, Config{Runner: runner, ResultDir: filepath.Join(file, "results"), LedgerPath: "-"})

	_, sub, _ := submit(t, ts, tinySpec)
	st := waitTerminal(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state %q (error %q), want done", st.State, st.Error)
	}
	if rcode, _ := getResult(t, ts, sub.ID); rcode != http.StatusOK {
		t.Errorf("result code %d, want 200", rcode)
	}
	// The counters move after the terminal transition; draining waits for
	// the executor to finish the job's bookkeeping.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		telemetry.ServeCompleted:     1,
		telemetry.ServeFailed:        0,
		telemetry.ServePersistErrors: 1,
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestGracefulDrain: draining lets the in-flight job and the queued
// backlog finish while new submissions are turned away with 503.
func TestGracefulDrain(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueCap: 4, Runner: gatedRunner(started, release)})

	_, inflight, _ := submit(t, ts, specWithSeed(1))
	<-started
	_, queued, _ := submit(t, ts, specWithSeed(2))

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// Admission flips to draining synchronously at the head of Drain; poll
	// briefly to absorb goroutine scheduling.
	deadline := time.Now().Add(2 * time.Second)
	var code int
	for time.Now().Before(deadline) {
		code, _, _ = submit(t, ts, specWithSeed(3))
		if code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: code %d, want 503", code)
	}
	if got := counter(telemetry.ServeRejectedDraining); got < 1 {
		t.Errorf("rejected_draining %d, want ≥ 1", got)
	}

	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{inflight.ID, queued.ID} {
		if st := getStatus(t, ts, id); st.State != StateDone {
			t.Errorf("job %s state %q after drain, want done", id, st.State)
		}
	}
}

// TestBadSubmissionsNeverEnqueue: every malformed payload is refused at
// the door — no job is created, no solve runs.
func TestBadSubmissionsNeverEnqueue(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := []string{
		``,
		`]]]`,
		`{"grid":{},"frobnicate":1}`,
		`{"vdd":1e999,"grid":{}}`,
		`{"schema_version":99,"grid":{}}`,
		`{"deck":"x","grid":{}}`,
		`{"trials":1000000,"grid":{}}`,
	}
	for _, body := range bodies {
		code, _, _ := submit(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, code)
		}
	}
	if got := counter(telemetry.ServeSolves); got != 0 {
		t.Errorf("malformed submissions ran %d solves", got)
	}
	if got := counter(telemetry.ServeSubmitted); got != 0 {
		t.Errorf("malformed submissions counted as submitted: %d", got)
	}
}

// TestUnknownJob: the status, result and timeline endpoints 404 on unknown
// IDs.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events", "/v1/jobs/nope/timeline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTerminalJobsBounded: every submission creates a job, a result-cache
// hit included, yet the store keeps at most maxTerminalJobs finished ones.
// The oldest terminal job goes first and answers 404 like an unknown ID;
// a running job is never evicted, and the newest result stays fetchable.
func TestTerminalJobsBounded(t *testing.T) {
	release := make(chan struct{})
	blocked := strings.Replace(tinySpec, `"seed":7`, `"seed":8`, 1)
	s, ts := newTestServer(t, Config{Runner: func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		if spec.Seed == 8 {
			<-release
		}
		return runSpec(ctx, spec, opts)
	}})
	defer close(release)

	_, first, _ := submit(t, ts, tinySpec)
	waitTerminal(t, ts, first.ID)
	_, running, _ := submit(t, ts, blocked)
	var last submitResponse
	for i := 0; i < maxTerminalJobs+50; i++ {
		code, sub, _ := submit(t, ts, tinySpec)
		if code != http.StatusOK || sub.Dedup != "result-cache" {
			t.Fatalf("submit %d: code %d resp %+v, want 200 result-cache", i, code, sub)
		}
		last = sub
	}

	s.store.mu.Lock()
	n := len(s.store.jobs)
	s.store.mu.Unlock()
	if n > maxTerminalJobs+1 {
		t.Errorf("store keeps %d jobs, want at most %d terminal plus 1 running", n, maxTerminalJobs)
	}
	if st := getStatus(t, ts, running.ID); st.State.Terminal() {
		t.Errorf("blocked job is %q, want queued or running", st.State)
	}
	if code, _ := getResult(t, ts, first.ID); code != http.StatusNotFound {
		t.Errorf("oldest terminal job: code %d, want 404", code)
	}
	if code, body := getResult(t, ts, last.ID); code != http.StatusOK || len(body) == 0 {
		t.Errorf("newest job result: code %d", code)
	}
}

// TestStoredFilesBounded: the store keeps at most maxTerminalJobs manifests
// in memory, evicting the name stored longest ago. An evicted result is read
// back from the result directory when there is one, and is otherwise
// recomputed to the same bytes.
func TestStoredFilesBounded(t *testing.T) {
	for _, withDir := range []bool{false, true} {
		cfg := Config{}
		if withDir {
			cfg.ResultDir = t.TempDir()
		}
		s, ts := newTestServer(t, cfg)
		_, first, _ := submit(t, ts, tinySpec)
		if st := waitTerminal(t, ts, first.ID); st.State != StateDone {
			t.Fatalf("dir=%v: state %q error %q", withDir, st.State, st.Error)
		}
		_, want := getResult(t, ts, first.ID)
		for i := 0; i < maxTerminalJobs; i++ {
			if err := s.store.put(fmt.Sprintf("filler-%d.json", i), []byte("{}")); err != nil {
				t.Fatal(err)
			}
		}
		s.store.mu.Lock()
		n := len(s.store.files)
		_, kept := s.store.files[resultName(first.Hash)]
		s.store.mu.Unlock()
		if n != maxTerminalJobs || kept {
			t.Fatalf("dir=%v: store keeps %d manifests (first result kept: %v), want %d without it", withDir, n, kept, maxTerminalJobs)
		}

		code, again, _ := submit(t, ts, tinySpec)
		wantDedup, wantCode := "", http.StatusAccepted
		if withDir {
			wantDedup, wantCode = "result-cache", http.StatusOK
		}
		if code != wantCode || again.Dedup != wantDedup {
			t.Fatalf("dir=%v: resubmit code %d dedup %q, want %d %q", withDir, code, again.Dedup, wantCode, wantDedup)
		}
		waitTerminal(t, ts, again.ID)
		if _, got := getResult(t, ts, again.ID); !bytes.Equal(got, want) {
			t.Errorf("dir=%v: evicted result came back as different bytes", withDir)
		}
	}
}

// getTimeline fetches and decodes /timeline.
func getTimeline(t *testing.T, ts *httptest.Server, id string) timelineResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/timeline")
	if err != nil {
		t.Fatalf("GET timeline: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET timeline: code %d", resp.StatusCode)
	}
	var tl timelineResponse
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatalf("decoding timeline: %v", err)
	}
	return tl
}

// TestTimelineEndpoint runs a real job of each engine end to end and checks
// its stage timeline covers that engine's pipeline in order, that every span
// is sane, and that the stage spans landed in the per-stage latency
// histograms and the serve gauges returned to idle.
func TestTimelineEndpoint(t *testing.T) {
	for _, tc := range []struct {
		engine string
		want   []string
	}{
		{"mc", []string{"admit", "queue-wait", "resolve", "compile", "factorize", "mc", "manifest"}},
		{"steady", []string{"admit", "queue-wait", "resolve", "compile", "factorize", "screen", "manifest"}},
		{"both", []string{"admit", "queue-wait", "resolve", "compile", "factorize", "screen", "mc", "manifest"}},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})

			spec := strings.Replace(tinySpec, `"engine":"mc"`, `"engine":"`+tc.engine+`"`, 1)
			_, sub, _ := submit(t, ts, spec)
			if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
				t.Fatalf("state %q, want done", st.State)
			}

			tl := getTimeline(t, ts, sub.ID)
			if tl.ID != sub.ID || tl.Hash != sub.Hash || tl.State != StateDone {
				t.Fatalf("timeline envelope %+v", tl)
			}
			if len(tl.Stages) != len(tc.want) {
				t.Fatalf("stages = %+v, want %v", tl.Stages, tc.want)
			}
			prevStart := -1.0
			for i, sp := range tl.Stages {
				if sp.Stage != tc.want[i] {
					t.Errorf("stage[%d] = %q, want %q", i, sp.Stage, tc.want[i])
				}
				if sp.DurationSeconds < 0 || sp.StartSeconds < prevStart {
					t.Errorf("stage[%d] %+v out of order or negative", i, sp)
				}
				prevStart = sp.StartSeconds
				h := telemetry.Default().Histogram(telemetry.ServeStageSeconds(sp.Stage)).Snapshot()
				if h.Count != 1 {
					t.Errorf("stage histogram %q count = %d, want 1", sp.Stage, h.Count)
				}
			}
			// The executor lowers the active-jobs gauge in a deferred call
			// after it marks the job done, so wait for the gauges to settle.
			for _, name := range []string{telemetry.ServeQueueDepth, telemetry.ServeJobsActive} {
				g := telemetry.Default().Gauge(name)
				deadline := time.Now().Add(5 * time.Second)
				for g.Value() != 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if v := g.Value(); v != 0 {
					t.Errorf("%s gauge = %v after completion, want 0", name, v)
				}
			}
		})
	}
}

// TestLedgerReplaysJobSet: with a result dir, every terminal job — executed
// or answered from the result cache — appends exactly one ledger record,
// and the records replay the submitted job set with outcomes, dedup
// disposition and stage durations.
func TestLedgerReplaysJobSet(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{ResultDir: dir})

	_, j1, _ := submit(t, ts, specWithSeed(1))
	waitTerminal(t, ts, j1.ID)
	_, j2, _ := submit(t, ts, specWithSeed(2))
	waitTerminal(t, ts, j2.ID)
	code, j3, _ := submit(t, ts, specWithSeed(1)) // result-cache replay
	if code != http.StatusOK || j3.Dedup != "result-cache" {
		t.Fatalf("duplicate submit: code %d resp %+v", code, j3)
	}

	recs, skipped, err := ReadLedger(s.ledger.Path())
	if err != nil || skipped != 0 {
		t.Fatalf("ReadLedger: %v (skipped %d)", err, skipped)
	}
	if len(recs) != 3 {
		t.Fatalf("ledger has %d records, want 3: %+v", len(recs), recs)
	}
	byID := map[string]LedgerRecord{}
	for _, r := range recs {
		byID[r.ID] = r
		if r.Schema != LedgerSchemaVersion || r.Engine != "mc" || r.Outcome != string(StateDone) {
			t.Errorf("record %+v: want schema %d, engine mc, outcome done", r, LedgerSchemaVersion)
		}
		if r.Time == "" {
			t.Errorf("record %s missing timestamp", r.ID)
		}
	}
	for _, sub := range []submitResponse{j1, j2, j3} {
		r, ok := byID[sub.ID]
		if !ok {
			t.Fatalf("job %s missing from ledger", sub.ID)
		}
		if r.ContentHash != sub.Hash {
			t.Errorf("job %s: ledger hash %s, want %s", sub.ID, r.ContentHash, sub.Hash)
		}
	}
	if d := byID[j3.ID].Dedup; d != "result-cache" {
		t.Errorf("cached job dedup = %q, want result-cache", d)
	}
	if d := byID[j1.ID].Dedup; d != "" {
		t.Errorf("executed job dedup = %q, want empty", d)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		r := byID[id]
		if r.Schema != LedgerSchemaVersion || r.TrialsDone != 6 || r.TrialsTotal != 6 {
			t.Errorf("executed record %+v: want schema %d, 6/6 trials", r, LedgerSchemaVersion)
		}
		for _, stage := range []string{"admit", "queue-wait", "mc", "manifest"} {
			if _, ok := r.StageSeconds[stage]; !ok {
				t.Errorf("job %s: ledger missing stage %q (have %v)", id, stage, r.StageSeconds)
			}
		}
		if r.WallSeconds <= 0 {
			t.Errorf("job %s: wall_seconds = %v", id, r.WallSeconds)
		}
	}
	if got := counter(telemetry.ServeLedgerRecords); got != 3 {
		t.Errorf("ledger records counter = %d, want 3", got)
	}
	if got := counter(telemetry.ServeLedgerErrors); got != 0 {
		t.Errorf("ledger errors counter = %d, want 0", got)
	}
}

// TestLedgerTimelineManifestInvariance pins the observability-is-passive
// contract: the same spec solved with the ledger and timelines fully
// enabled and with the ledger disabled yields byte-identical manifests.
func TestLedgerTimelineManifestInvariance(t *testing.T) {
	var manifests []string
	for _, cfg := range []Config{{}, {ResultDir: t.TempDir()}} {
		func() {
			telemetry.SetDefault(telemetry.New())
			trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(256), DisableSamples: true}))
			defer telemetry.SetDefault(nil)
			defer trace.SetDefault(nil)
			s := NewServer(cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Drain(ctx) //nolint:errcheck
			}()
			code, sub, _ := submit(t, ts, tinySpec)
			if code != http.StatusAccepted {
				t.Fatalf("submit code %d", code)
			}
			if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
				t.Fatalf("state %q error %q", st.State, st.Error)
			}
			rcode, body := getResult(t, ts, sub.ID)
			if rcode != http.StatusOK {
				t.Fatalf("result code %d", rcode)
			}
			manifests = append(manifests, string(body))
		}()
	}
	if manifests[0] != manifests[1] {
		t.Errorf("manifests differ with observability off vs on:\n--- off\n%s\n--- on\n%s", manifests[0], manifests[1])
	}
}

// TestLedgerPathConfig pins the path resolution: explicit LedgerPath wins,
// "-" disables the ledger even with a result dir.
func TestLedgerPathConfig(t *testing.T) {
	dir := t.TempDir()
	explicit := filepath.Join(dir, "custom.jsonl")
	telemetry.SetDefault(telemetry.New())
	defer telemetry.SetDefault(nil)
	defer trace.SetDefault(nil)
	drain := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}
	s := NewServer(Config{ResultDir: dir, LedgerPath: explicit})
	if s.ledger.Path() != explicit {
		t.Errorf("explicit ledger path = %q, want %q", s.ledger.Path(), explicit)
	}
	drain(s)
	s = NewServer(Config{ResultDir: dir, LedgerPath: "-"})
	if s.ledger != nil {
		t.Errorf(`LedgerPath "-" did not disable the ledger`)
	}
	drain(s)
	s = NewServer(Config{})
	if s.ledger != nil {
		t.Errorf("memory-only server grew a ledger")
	}
	drain(s)
	s = NewServer(Config{ResultDir: dir})
	if s.ledger.Path() != filepath.Join(dir, "ledger.jsonl") {
		t.Errorf("default ledger path = %q", s.ledger.Path())
	}
	drain(s)
}

// TestEventsStream: the SSE endpoint replays the job's cascade summaries
// from the trace ring and terminates with an end frame once the job is
// done.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, sub, _ := submit(t, ts, tinySpec)
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("state %q, want done", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	trials, end := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "event: trial":
			trials++
		case "event: end":
			end = true
		}
	}
	if !end {
		t.Errorf("stream ended without an end frame (scan err %v)", sc.Err())
	}
	if trials != 6 {
		t.Errorf("streamed %d trial frames, want 6", trials)
	}
}

// TestResultCachePersists: with a ResultDir, a second server instance
// answers an identical submission from the on-disk manifest without
// re-solving — dedup across restarts.
func TestResultCachePersists(t *testing.T) {
	dir := t.TempDir()

	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(256), DisableSamples: true}))
	s1 := NewServer(Config{ResultDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, sub, _ := submit(t, ts1, tinySpec)
	if st := waitTerminal(t, ts1, sub.ID); st.State != StateDone {
		t.Fatalf("first server: state %q", st.State)
	}
	_, first := getResult(t, ts1, sub.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Drain(ctx) //nolint:errcheck
	cancel()
	ts1.Close()

	// A fresh process would also have fresh globals; reinstall them.
	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(256), DisableSamples: true}))
	defer telemetry.SetDefault(nil)
	defer trace.SetDefault(nil)
	s2 := NewServer(Config{ResultDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Drain(ctx) //nolint:errcheck
	}()

	code, sub2, _ := submit(t, ts2, tinySpec)
	if code != http.StatusOK || sub2.Dedup != "result-cache" {
		t.Fatalf("second server submit: code %d resp %+v, want 200 result-cache", code, sub2)
	}
	_, second := getResult(t, ts2, sub2.ID)
	if string(first) != string(second) {
		t.Errorf("persisted manifest differs from the original")
	}
	if got := counter(telemetry.ServeSolves); got != 0 {
		t.Errorf("second server ran %d solves, want 0", got)
	}
}

// TestResultCacheStaleFileIsMiss: a result file that is garbage, or a
// manifest of an older schema, is never served from disk. The job is
// recomputed and the fresh manifest overwrites the file.
func TestResultCacheStaleFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{ResultDir: dir})
	_, sub, _ := submit(t, ts, tinySpec)
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("seed run: state %q", st.State)
	}
	_, good := getResult(t, ts, sub.ID)
	var m map[string]any
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m["content_hash"].(string)+".json")
	// Schema-2 and schema-3 answers have today's layout but came from the
	// downdate path and the nested-dissection ordering, whose TTFs differ
	// from a fresh run at rounding level.
	m["schema_version"] = 3
	schema3, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m["schema_version"] = 2
	schema2, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m["schema_version"] = 1
	m["solver"] = "auto"
	schema1, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		file []byte
	}{{"garbage", []byte("{not a manifest")}, {"schema 1", schema1}, {"schema 2", schema2}, {"schema 3", schema3}} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{ResultDir: dir})
			code, sub, _ := submit(t, ts, tinySpec)
			if code != http.StatusAccepted || sub.Dedup != "" {
				t.Fatalf("submit over a %s file: code %d resp %+v, want a fresh run", tc.name, code, sub)
			}
			if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
				t.Fatalf("state %q", st.State)
			}
			if _, got := getResult(t, ts, sub.ID); !bytes.Equal(got, good) {
				t.Errorf("recomputed manifest differs from the original")
			}
			if got := counter(telemetry.ServeSolves); got != 1 {
				t.Errorf("ran %d solves, want 1", got)
			}
			if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, good) {
				t.Errorf("result file not rewritten with the fresh manifest (err %v)", err)
			}
		})
	}
}

// specHash is the content hash of a spec body.
func specHash(t *testing.T, body string) string {
	t.Helper()
	spec, err := DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestStoreRemovesStaleTemps: a temp file a killed server left in the
// result directory more than an hour ago is removed by the next write of
// its name — a result or a partial — while a fresh one, which may belong to
// a live writer, stays.
func TestStoreRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	hash := specHash(t, shardSpec)
	stale := []string{"." + hash + ".tmp123", "." + hash + ".part-0+4.tmp456"}
	fresh := "." + hash + ".tmp789"
	old := time.Now().Add(-time.Hour - time.Minute)
	for _, name := range append(stale, fresh) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		if name != fresh {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, ts := newTestServer(t, Config{ResultDir: dir, Shards: 3, LedgerPath: "-"})
	_, sub, _ := submit(t, ts, shardSpec)
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("state %q (error %q)", st.State, st.Error)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived the write of its name: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, fresh)); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
	for _, name := range []string{hash + ".json", hash + ".part-0+4.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

// TestEarlierResultDirHits: testdata/resultdir holds files the store wrote
// when results and partials had separate caches (commit 9e3428e): tinySpec's
// result manifest and shardSpec's three partial manifests. A server over a
// copy of it answers tinySpec from the result cache and merges shardSpec
// from the stored partials without running a shard.
func TestEarlierResultDirHits(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "resultdir", "*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("fixture files %v (err %v), want 4", files, err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := referenceManifest(t, shardSpec)
	_, ts := newTestServer(t, Config{ResultDir: dir, Shards: 3, LedgerPath: "-"})

	code, sub, _ := submit(t, ts, tinySpec)
	if code != http.StatusOK || sub.Dedup != "result-cache" {
		t.Fatalf("tinySpec submit: code %d resp %+v, want 200 result-cache", code, sub)
	}
	stored, err := os.ReadFile(filepath.Join(dir, sub.Hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, got := getResult(t, ts, sub.ID); !bytes.Equal(got, stored) {
		t.Errorf("result-cache answer differs from the stored manifest")
	}

	_, sub, _ = submit(t, ts, shardSpec)
	if st := waitTerminal(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("shardSpec: state %q (error %q)", st.State, st.Error)
	}
	if _, got := getResult(t, ts, sub.ID); !bytes.Equal(got, want) {
		t.Errorf("manifest merged from stored partials differs from the single-process run")
	}
	if n := counter(telemetry.ServeShardCacheHits); n != 3 {
		t.Errorf("shard cache hits %d, want 3", n)
	}
	if n := counter(telemetry.ServeShardLocalRuns); n != 0 {
		t.Errorf("local shard runs %d, want 0", n)
	}
}
