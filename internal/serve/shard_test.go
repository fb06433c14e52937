package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// shardSpec is tinySpec with enough trials for a meaningful partition.
var shardSpec = strings.Replace(tinySpec, `"trials":6`, `"trials":12`, 1)

// fleet is a coordinator plus worker emserve processes sharing one httptest
// host each. All servers share the process's telemetry registry and trace
// ring, so counter assertions see fleet-wide traffic.
type fleet struct {
	coord   *Server
	coordTS *httptest.Server
	workers []*httptest.Server
}

// newFleet resets the process globals, boots nWorkers worker servers, wires
// their URLs into cfg.ShardWorkers (appending to any pre-seeded entries,
// e.g. a dead or hanging decoy) and boots the coordinator on top.
func newFleet(t *testing.T, nWorkers int, cfg Config) *fleet {
	t.Helper()
	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(1024), DisableSamples: true}))
	t.Cleanup(func() {
		telemetry.SetDefault(nil)
		trace.SetDefault(nil)
	})
	f := &fleet{}
	drain := func(s *Server, ts *httptest.Server) {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("cleanup drain: %v", err)
			}
			ts.Close()
		})
	}
	for i := 0; i < nWorkers; i++ {
		w := NewServer(Config{})
		wts := httptest.NewServer(w.Handler())
		drain(w, wts)
		f.workers = append(f.workers, wts)
		cfg.ShardWorkers = append(cfg.ShardWorkers, wts.URL)
	}
	f.coord = NewServer(cfg)
	f.coordTS = httptest.NewServer(f.coord.Handler())
	drain(f.coord, f.coordTS)
	return f
}

// referenceManifest computes the single-process manifest of a spec through
// the same engine path the server uses — the byte-identity baseline every
// sharded run must reproduce.
func referenceManifest(t *testing.T, body string) []byte {
	t.Helper()
	spec, err := DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding spec: %v", err)
	}
	resolved := spec.Resolved()
	hash, err := spec.ContentHash()
	if err != nil {
		t.Fatalf("hashing spec: %v", err)
	}
	out, err := runSpec(context.Background(), resolved, RunOptions{Workers: 1, Label: "reference"})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	m, err := buildManifest(hash, resolved, out)
	if err != nil {
		t.Fatalf("reference manifest: %v", err)
	}
	buf, err := m.Encode()
	if err != nil {
		t.Fatalf("encoding reference manifest: %v", err)
	}
	return buf
}

// runSharded submits a spec to the fleet's coordinator and returns the
// manifest bytes after asserting the job completed.
func (f *fleet) run(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	code, sub, _ := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	st := waitTerminal(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %q (error %q), want done", st.State, st.Error)
	}
	rcode, manifest := getResult(t, ts, sub.ID)
	if rcode != http.StatusOK {
		t.Fatalf("result: code %d, body %s", rcode, manifest)
	}
	return manifest
}

// TestShardedLocalPoolByteIdentity: with no workers configured, sharding
// self-dispatches to a local executor pool and still reproduces the
// single-process manifest bit for bit.
func TestShardedLocalPoolByteIdentity(t *testing.T) {
	f := newFleet(t, 0, Config{Shards: 3})
	want := referenceManifest(t, shardSpec)
	got := f.run(t, f.coordTS, shardSpec)
	if !bytes.Equal(want, got) {
		t.Errorf("local-pool sharded manifest differs from single-process:\n--- single\n%s\n--- sharded\n%s", want, got)
	}
	if n := counter(telemetry.ServeShardLocalRuns); n != 3 {
		t.Errorf("local shard runs %d, want 3", n)
	}
	if n := counter(telemetry.ServeShardRemoteRuns); n != 0 {
		t.Errorf("remote shard runs %d, want 0", n)
	}
}

// TestShardedRemoteWorkersByteIdentity: a coordinator dispatching to two
// worker processes merges their partial manifests into the byte-identical
// single-process manifest, for both the mc and the screened both engines.
func TestShardedRemoteWorkersByteIdentity(t *testing.T) {
	f := newFleet(t, 2, Config{Shards: 3})
	for _, tc := range []struct {
		name string
		body string
	}{
		{"mc", shardSpec},
		{"both", strings.Replace(shardSpec, `"engine":"mc"`, `"engine":"both"`, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceManifest(t, tc.body)
			got := f.run(t, f.coordTS, tc.body)
			if !bytes.Equal(want, got) {
				t.Errorf("sharded manifest differs from single-process:\n--- single\n%s\n--- sharded\n%s", want, got)
			}
		})
	}
	if n := counter(telemetry.ServeShardRemoteRuns); n != 6 {
		t.Errorf("remote shard runs %d, want 6 (3 per job)", n)
	}
	if n := counter(telemetry.ServeShardLocalRuns); n != 0 {
		t.Errorf("local shard runs %d, want 0", n)
	}
}

// TestShardWorkerStragglerReassignment: a worker that hangs mid-shard (a
// kill without a TCP reset) trips ShardTimeout and the shard is re-issued
// to the next worker; the merged manifest is still byte-identical and the
// job reports the re-issue.
func TestShardWorkerStragglerReassignment(t *testing.T) {
	stop := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the shard request open past ShardTimeout — a worker killed
		// mid-job without a TCP reset. stop releases the handler at test end
		// so the httptest server can close.
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer hang.Close()
	defer close(stop)
	f := newFleet(t, 1, Config{
		Shards:       2,
		ShardWorkers: []string{hang.URL}, // newFleet appends the live worker after the decoy
		ShardTimeout: 200 * time.Millisecond,
	})
	want := referenceManifest(t, shardSpec)
	code, sub, _ := submit(t, f.coordTS, shardSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	st := waitTerminal(t, f.coordTS, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %q (error %q), want done", st.State, st.Error)
	}
	_, got := getResult(t, f.coordTS, sub.ID)
	if !bytes.Equal(want, got) {
		t.Errorf("manifest after straggler reassignment differs from single-process run")
	}
	if n := counter(telemetry.ServeShardReissues); n < 1 {
		t.Errorf("shard reissues %d, want ≥ 1", n)
	}
	job, ok := f.coord.store.job(sub.ID)
	if !ok {
		t.Fatal("job vanished from the store")
	}
	if js := job.Status(); js.Shards != 2 || js.ShardReissues < 1 {
		t.Errorf("job status shards=%d reissues=%d, want 2/≥1", js.Shards, js.ShardReissues)
	}
}

// TestShardAllWorkersDownLocalFallback: with every worker unreachable the
// final always-local attempt still completes the job — slow success, never
// failure — and the manifest stays byte-identical.
func TestShardAllWorkersDownLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	f := newFleet(t, 0, Config{
		Shards:       2,
		ShardWorkers: []string{dead.URL},
	})
	want := referenceManifest(t, shardSpec)
	got := f.run(t, f.coordTS, shardSpec)
	if !bytes.Equal(want, got) {
		t.Errorf("manifest after local fallback differs from single-process run")
	}
	if n := counter(telemetry.ServeShardLocalRuns); n != 2 {
		t.Errorf("local shard runs %d, want 2", n)
	}
	if n := counter(telemetry.ServeShardErrors); n < 2 {
		t.Errorf("shard dispatch errors %d, want ≥ 2", n)
	}
}

// postShard sends a raw shard request to a server and returns the status
// code and body.
func postShard(t *testing.T, ts *httptest.Server, req shardRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("encoding shard request: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/shards: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading shard response: %v", err)
	}
	return resp.StatusCode, out
}

// TestShardContentHashSkew: a worker that disagrees with the coordinator
// about what the spec hashes to refuses the shard with 409 — fleet-version
// skew must never reach a merge.
func TestShardContentHashSkew(t *testing.T) {
	f := newFleet(t, 1, Config{})
	spec, err := DecodeJobSpec(strings.NewReader(shardSpec))
	if err != nil {
		t.Fatalf("decoding spec: %v", err)
	}
	code, body := postShard(t, f.workers[0], shardRequest{
		SchemaVersion: SpecSchemaVersion,
		ContentHash:   "not-the-real-hash",
		Spec:          spec.Resolved(),
		TrialStart:    0,
		TrialCount:    3,
	})
	if code != http.StatusConflict {
		t.Fatalf("hash-skewed shard: code %d (body %s), want 409", code, body)
	}
}

// TestShardRequestValidation: malformed shard requests are rejected before
// any engine work.
func TestShardRequestValidation(t *testing.T) {
	f := newFleet(t, 1, Config{})
	spec, err := DecodeJobSpec(strings.NewReader(shardSpec))
	if err != nil {
		t.Fatalf("decoding spec: %v", err)
	}
	resolved := spec.Resolved()
	for _, tc := range []struct {
		name string
		req  shardRequest
	}{
		{"no spec", shardRequest{SchemaVersion: SpecSchemaVersion}},
		{"range past end", shardRequest{SchemaVersion: SpecSchemaVersion, Spec: resolved, TrialStart: 8, TrialCount: 8}},
		{"empty range", shardRequest{SchemaVersion: SpecSchemaVersion, Spec: resolved, TrialStart: 0, TrialCount: 0}},
		{"future schema", shardRequest{SchemaVersion: SpecSchemaVersion + 1, Spec: resolved, TrialStart: 0, TrialCount: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postShard(t, f.workers[0], tc.req)
			if code != http.StatusBadRequest {
				t.Errorf("code %d (body %s), want 400", code, body)
			}
		})
	}
}

// TestShardRanges pins the partition arithmetic: contiguous, balanced,
// exact tiling for every (trials, shards) shape.
func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		trials, shards int
		want           []trialRange
	}{
		{12, 3, []trialRange{{0, 4}, {4, 4}, {8, 4}}},
		{13, 3, []trialRange{{0, 5}, {5, 4}, {9, 4}}},
		{2, 4, []trialRange{{0, 1}, {1, 1}}},
		{5, 1, []trialRange{{0, 5}}},
	} {
		got := shardRanges(tc.trials, tc.shards)
		if len(got) != len(tc.want) {
			t.Errorf("shardRanges(%d, %d) = %v, want %v", tc.trials, tc.shards, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("shardRanges(%d, %d)[%d] = %v, want %v", tc.trials, tc.shards, i, got[i], tc.want[i])
			}
		}
	}
}

// TestRetryAfterHint pins the queue-aware Retry-After derivation: before
// any job completes the hint is the 1s floor; once the per-job wall-time
// histogram has data the hint scales with the backlog and clamps at the
// 10-minute ceiling.
func TestRetryAfterHint(t *testing.T) {
	telemetry.SetDefault(telemetry.New())
	trace.SetDefault(trace.New(trace.Options{Ring: trace.NewRing(64), DisableSamples: true}))
	t.Cleanup(func() {
		telemetry.SetDefault(nil)
		trace.SetDefault(nil)
	})
	s := NewServer(Config{Runner: func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error) {
		return &runOutput{materialHash: "test"}, nil
	}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})
	if got := s.retryAfterHint(1); got != "1" {
		t.Errorf("hint before any job = %s, want the 1s floor", got)
	}
	// Five identical 3-second jobs: the P50 clamp makes the estimate exact.
	for i := 0; i < 5; i++ {
		s.reg.Histogram(telemetry.ServeJobSeconds).Observe(3.0)
	}
	if got := s.retryAfterHint(1); got != "3" {
		t.Errorf("hint at backlog 1 = %s, want 3", got)
	}
	if got := s.retryAfterHint(4); got != "12" {
		t.Errorf("hint at backlog 4 = %s, want 12", got)
	}
	if got := s.retryAfterHint(1000); got != "600" {
		t.Errorf("hint at backlog 1000 = %s, want the 600s ceiling", got)
	}
}
