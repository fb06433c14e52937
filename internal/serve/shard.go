package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"emvia/internal/mc"
	"emvia/internal/telemetry"
)

// trialRange is one contiguous shard of a job's trial range.
type trialRange struct {
	start, count int
}

// shardRanges splits [0, trials) into at most shards contiguous balanced
// ranges (the first trials%shards ranges get one extra trial). Fewer trials
// than shards yields one single-trial range per trial.
func shardRanges(trials, shards int) []trialRange {
	if shards > trials {
		shards = trials
	}
	if shards < 1 {
		shards = 1
	}
	q, r := trials/shards, trials%shards
	out := make([]trialRange, 0, shards)
	start := 0
	for i := 0; i < shards; i++ {
		count := q
		if i < r {
			count++
		}
		out = append(out, trialRange{start: start, count: count})
		start += count
	}
	return out
}

// shardCount resolves how many shards a job splits into: the configured
// count, capped by the trial count, and 1 (no sharding) for the steady
// engine, which runs no trials to split.
func (s *Server) shardCount(spec *JobSpec) int {
	k := s.cfg.Shards
	if k <= 1 || spec.Engine == mc.EngineSteady || spec.Trials < 2 {
		return 1
	}
	if k > spec.Trials {
		k = spec.Trials
	}
	return k
}

// execute runs one job's engine work: sharded across the worker fleet (or
// the local executor pool) when sharding is configured, single-process
// otherwise.
func (s *Server) execute(ctx context.Context, job *Job) (*runOutput, error) {
	if k := s.shardCount(job.Spec); k > 1 {
		return s.runSharded(ctx, job, k)
	}
	return s.runner(ctx, job.Spec, RunOptions{Workers: s.cfg.JobWorkers, Label: job.TraceLabel()})
}

// shardRequest is the POST /v1/shards body: one trial-range sub-job of a
// resolved spec. ContentHash is the coordinator's address for the resolved
// spec — the worker recomputes it and refuses on mismatch, which catches
// schema or material-constant skew across the fleet before it can corrupt
// a merge. CacheURL, when set, is the coordinator's base URL; the worker
// consults and populates the coordinator's partial cache through it, so
// the whole fleet shares one dedup domain.
type shardRequest struct {
	SchemaVersion int      `json:"schema_version"`
	ContentHash   string   `json:"content_hash"`
	Spec          *JobSpec `json:"spec"`
	TrialStart    int      `json:"trial_start"`
	TrialCount    int      `json:"trial_count"`
	CacheURL      string   `json:"cache_url,omitempty"`
}

// runSharded executes one job as K contiguous trial-range shards and merges
// the partial manifests into the single-process-identical run output. Each
// shard is dispatched to the worker fleet (round-robin from a per-shard
// offset, re-issued to the next worker on failure or timeout) or, when no
// workers are configured, to a local executor pool. The final attempt of
// every shard runs locally, so a job only fails when the engine itself
// fails. Completed partials are content-addressed in the coordinator's
// cache, making re-issues idempotent.
func (s *Server) runSharded(ctx context.Context, job *Job, k int) (*runOutput, error) {
	ranges := shardRanges(job.Spec.Trials, k)
	job.noteShards(len(ranges))

	endDispatch := job.Timeline.Stage("dispatch")
	parts := make([]*PartialManifest, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r trialRange) {
			defer wg.Done()
			parts[i], errs[i] = s.runShard(ctx, job, i, r)
		}(i, r)
	}
	endDispatch()

	endWait := job.Timeline.Stage("shard-wait")
	wg.Wait()
	endWait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d [%d,%d): %w", i, ranges[i].start, ranges[i].start+ranges[i].count, err)
		}
	}

	endMerge := job.Timeline.Stage("merge")
	out, err := mergePartials(job.Hash, job.Spec, parts)
	endMerge()
	if err != nil {
		s.reg.Counter(telemetry.ServeShardMergeErrors).Inc()
		return nil, err
	}
	return out, nil
}

// runShard produces the partial manifest of one shard: coordinator cache
// first, then up to ShardAttempts-1 remote dispatches (each bounded by
// ShardTimeout and re-issued to the next worker on failure — the straggler
// path), then a local run as the final attempt.
func (s *Server) runShard(ctx context.Context, job *Job, idx int, r trialRange) (*PartialManifest, error) {
	if p := s.cachedPartial(job.Hash, job.Spec, r); p != nil {
		s.reg.Counter(telemetry.ServeShardCacheHits).Inc()
		job.addShardTrials(int64(r.count))
		return p, nil
	}
	workers := s.cfg.ShardWorkers
	attempts := s.cfg.ShardAttempts
	var lastErr error
	for attempt := 0; attempt < attempts-1 && len(workers) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			s.reg.Counter(telemetry.ServeShardReissues).Inc()
			job.noteShardReissue()
		}
		worker := workers[(idx+attempt)%len(workers)]
		s.reg.Counter(telemetry.ServeShardDispatched).Inc()
		p, err := s.dispatchShard(ctx, worker, job, r)
		if err == nil {
			s.reg.Counter(telemetry.ServeShardRemoteRuns).Inc()
			s.storePartial(job.Hash, r, p)
			job.addShardTrials(int64(r.count))
			return p, nil
		}
		s.reg.Counter(telemetry.ServeShardErrors).Inc()
		lastErr = err
	}
	// Final attempt: run the shard on the coordinator's own engine. This is
	// what makes a fleet with every worker down degrade to a slow success
	// instead of a failure, and it is the whole dispatch path of the local
	// executor pool (no workers configured).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lastErr != nil {
		s.reg.Counter(telemetry.ServeShardReissues).Inc()
		job.noteShardReissue()
	}
	s.reg.Counter(telemetry.ServeShardLocalRuns).Inc()
	out, err := s.runner(ctx, job.Spec, RunOptions{
		Workers:    s.cfg.JobWorkers,
		Label:      job.TraceLabel(),
		TrialStart: r.start,
		TrialCount: r.count,
	})
	if err != nil {
		if lastErr != nil {
			return nil, fmt.Errorf("%w (after remote dispatch failed: %v)", err, lastErr)
		}
		return nil, err
	}
	p := buildPartial(job.Hash, job.Spec, r.start, out)
	s.storePartial(job.Hash, r, p)
	job.addShardTrials(int64(r.count))
	return p, nil
}

// dispatchShard POSTs one shard to a worker and decodes the returned
// partial manifest. The attempt is bounded by ShardTimeout; a timeout is
// reported as a plain error (not context.DeadlineExceeded) unless the
// job's own deadline expired, so a straggling worker triggers re-issue
// rather than job-level deadline handling.
func (s *Server) dispatchShard(ctx context.Context, worker string, job *Job, r trialRange) (*PartialManifest, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
	defer cancel()
	body, err := json.Marshal(shardRequest{
		SchemaVersion: SpecSchemaVersion,
		ContentHash:   job.Hash,
		Spec:          job.Spec,
		TrialStart:    r.start,
		TrialCount:    r.count,
		CacheURL:      s.cfg.AdvertiseURL,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shard request: %w", err)
	}
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, workerURL(worker)+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.shardClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("serve: worker %s: %v", worker, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("serve: worker %s: status %d: %s", worker, resp.StatusCode, strings.TrimSpace(string(snippet)))
	}
	p, err := DecodePartialManifest(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: worker %s: %w", worker, err)
	}
	if err := checkPartial(p, job.Hash, job.Spec); err != nil {
		return nil, fmt.Errorf("serve: worker %s: %w", worker, err)
	}
	if p.TrialStart != r.start || p.TrialCount != r.count {
		return nil, fmt.Errorf("serve: worker %s answered range [%d,%d), want [%d,%d)",
			worker, p.TrialStart, p.TrialStart+p.TrialCount, r.start, r.start+r.count)
	}
	return p, nil
}

// workerURL normalizes a -workers entry ("host:port" or a full URL) to a
// base URL without a trailing slash.
func workerURL(w string) string {
	if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
		w = "http://" + w
	}
	return strings.TrimRight(w, "/")
}

// cachedPartial consults the content-addressed partial cache; a corrupt or
// mismatching entry is a miss (never an error), mirroring the result
// cache's corruption policy.
func (s *Server) cachedPartial(hash string, resolved *JobSpec, r trialRange) *PartialManifest {
	buf, ok := s.store.lookupPartial(hash, r.start, r.count)
	if !ok {
		return nil
	}
	p, err := DecodePartialManifest(bytes.NewReader(buf))
	if err != nil || checkPartial(p, hash, resolved) != nil {
		return nil
	}
	if p.TrialStart != r.start || p.TrialCount != r.count {
		return nil
	}
	return p
}

// storePartial records a completed partial in the coordinator cache
// (best-effort: an encoding or disk failure costs dedup, never the job).
func (s *Server) storePartial(hash string, r trialRange, p *PartialManifest) {
	buf, err := p.Encode()
	if err != nil {
		return
	}
	s.store.savePartial(hash, r.start, r.count, buf) //nolint:errcheck // best-effort cache population
}

// handleShard is POST /v1/shards — the worker side of shard dispatch. It
// validates the sub-job, refuses on content-hash disagreement (fleet skew),
// answers from the local or coordinator partial cache when possible, and
// otherwise executes the trial range under a concurrency bound and returns
// the canonical partial manifest.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, MaxSpecBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req shardRequest
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: decoding shard request: %v", err))
		return
	}
	if req.SchemaVersion > SpecSchemaVersion {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: shard request schema %d is newer than this worker's %d", req.SchemaVersion, SpecSchemaVersion))
		return
	}
	if req.Spec == nil {
		s.writeError(w, http.StatusBadRequest, "serve: shard request carries no spec")
		return
	}
	if err := req.Spec.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resolved := req.Spec.Resolved()
	if resolved.Engine == mc.EngineSteady {
		s.writeError(w, http.StatusBadRequest, "serve: the steady engine has no trials to shard")
		return
	}
	if req.TrialStart < 0 || req.TrialCount < 1 || req.TrialStart+req.TrialCount > resolved.Trials {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: shard range [%d,%d) outside the spec's [0,%d)",
			req.TrialStart, req.TrialStart+req.TrialCount, resolved.Trials))
		return
	}
	hash, err := req.Spec.ContentHash()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if req.ContentHash != "" && req.ContentHash != hash {
		// The coordinator and this worker disagree on what the spec means —
		// schema or material-constant skew. Refusing here is what keeps a
		// mixed-version fleet from merging incompatible partials.
		s.writeError(w, http.StatusConflict, fmt.Sprintf("serve: content hash mismatch: coordinator %.12s, worker %.12s", req.ContentHash, hash))
		return
	}
	rng := trialRange{start: req.TrialStart, count: req.TrialCount}
	if p := s.cachedPartial(hash, resolved, rng); p != nil {
		s.reg.Counter(telemetry.ServeShardCacheHits).Inc()
		s.writePartial(w, p)
		return
	}
	if p := s.coordinatorPartial(r.Context(), req.CacheURL, hash, resolved, rng); p != nil {
		s.storePartial(hash, rng, p)
		s.writePartial(w, p)
		return
	}

	// Bound concurrent shard executions; the coordinator's shard-wait span
	// absorbs the queueing and its straggler re-issue path covers a worker
	// that stays saturated.
	select {
	case s.shardSlots <- struct{}{}:
		defer func() { <-s.shardSlots }()
	case <-r.Context().Done():
		s.writeError(w, http.StatusServiceUnavailable, "serve: shard canceled while waiting for an executor slot")
		return
	}
	s.reg.Counter(telemetry.ServeShardServed).Inc()
	t0 := s.reg.Histogram(telemetry.ServeShardServeSeconds).Start()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	label := fmt.Sprintf("shard:%.8s:%d+%d", hash, rng.start, rng.count)
	out, err := s.runner(ctx, resolved, RunOptions{
		Workers:    s.cfg.JobWorkers,
		Label:      label,
		TrialStart: rng.start,
		TrialCount: rng.count,
	})
	s.reg.Histogram(telemetry.ServeShardServeSeconds).ObserveSince(t0)
	if err != nil {
		s.reg.Counter(telemetry.ServeShardErrors).Inc()
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	p := buildPartial(hash, resolved, rng.start, out)
	s.storePartial(hash, rng, p)
	s.pushPartial(req.CacheURL, hash, rng, p)
	s.writePartial(w, p)
}

// writePartial responds with a partial manifest's canonical bytes.
func (s *Server) writePartial(w http.ResponseWriter, p *PartialManifest) {
	buf, err := p.Encode()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // client gone = nothing to do
}

// coordinatorPartial consults the coordinator's partial cache over HTTP
// (GET /v1/partials/...). Any failure — network, decode, validation — is a
// miss; cache replication is an optimization, never a dependency.
func (s *Server) coordinatorPartial(ctx context.Context, cacheURL, hash string, resolved *JobSpec, r trialRange) *PartialManifest {
	if cacheURL == "" {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, partialURL(cacheURL, hash, r), nil)
	if err != nil {
		return nil
	}
	resp, err := s.shardClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	p, err := DecodePartialManifest(resp.Body)
	if err != nil || checkPartial(p, hash, resolved) != nil || p.TrialStart != r.start || p.TrialCount != r.count {
		return nil
	}
	s.reg.Counter(telemetry.ServeShardCacheHits).Inc()
	return p
}

// pushPartial replicates a freshly computed partial into the coordinator's
// cache (PUT /v1/partials/...), best-effort.
func (s *Server) pushPartial(cacheURL, hash string, r trialRange, p *PartialManifest) {
	if cacheURL == "" {
		return
	}
	buf, err := p.Encode()
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, partialURL(cacheURL, hash, r), bytes.NewReader(buf))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.shardClient.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// partialURL is the cache address of one partial on a base URL.
func partialURL(base, hash string, r trialRange) string {
	return fmt.Sprintf("%s/v1/partials/%s/%d/%d", workerURL(base), hash, r.start, r.count)
}

// handlePartialGet is GET /v1/partials/{hash}/{start}/{count}: the fleet's
// shared partial-cache read path.
func (s *Server) handlePartialGet(w http.ResponseWriter, r *http.Request) {
	hash, rng, ok := partialPath(r)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "serve: malformed partial address")
		return
	}
	buf, found := s.store.lookupPartial(hash, rng.start, rng.count)
	if !found {
		s.writeError(w, http.StatusNotFound, "serve: no cached partial for this range")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck
}

// handlePartialPut is PUT /v1/partials/{hash}/{start}/{count}: workers
// populate the coordinator's cache here. The body must be a valid partial
// manifest whose identity fields match its address — internal consistency
// is all that can be verified without the resolved spec, and the merge
// re-validates everything against the job before any partial is trusted.
func (s *Server) handlePartialPut(w http.ResponseWriter, r *http.Request) {
	hash, rng, ok := partialPath(r)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "serve: malformed partial address")
		return
	}
	body := http.MaxBytesReader(w, r.Body, MaxPartialBytes)
	p, err := DecodePartialManifest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if p.SchemaVersion != PartialManifestSchemaVersion || p.ContentHash != hash ||
		p.TrialStart != rng.start || p.TrialCount != rng.count ||
		p.TrialCount < 1 || len(p.TTFSeconds) != p.TrialCount || p.MaterialHash == "" {
		s.writeError(w, http.StatusBadRequest, "serve: partial manifest does not match its address")
		return
	}
	s.storePartial(hash, rng, p)
	w.WriteHeader(http.StatusNoContent)
}

// partialPath parses the {hash}/{start}/{count} path values.
func partialPath(r *http.Request) (string, trialRange, bool) {
	hash := r.PathValue("hash")
	start, err1 := strconv.Atoi(r.PathValue("start"))
	count, err2 := strconv.Atoi(r.PathValue("count"))
	if hash == "" || err1 != nil || err2 != nil || start < 0 || count < 1 {
		return "", trialRange{}, false
	}
	return hash, trialRange{start: start, count: count}, true
}
