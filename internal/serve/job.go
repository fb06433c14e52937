package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"emvia/internal/trace"
)

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are StateDone, StateFailed and
// StateDeadline; every terminal transition closes Job.done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateDeadline State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDeadline
}

// Job is one submitted analysis, resolved and content-addressed.
type Job struct {
	// ID is the server-assigned job identity ("j-<n>-<hash8>").
	ID string
	// Hash is the content address of the resolved spec.
	Hash string
	// Spec is the resolved spec (defaults applied).
	Spec *JobSpec
	// Timeout is the execution bound the runner gets.
	Timeout time.Duration
	// Timeline accumulates the job's stage spans (admit → queue-wait →
	// engine stages → manifest). May be nil; recording through it is
	// nil-safe.
	Timeline *trace.Timeline

	// done closes on the terminal transition; SSE streams and drain wait on
	// it.
	done chan struct{}

	mu          sync.Mutex
	state       State
	err         string
	attempts    int
	trialsDone  int64
	trialsTotal int64
	created     time.Time
	started     time.Time
	finished    time.Time
	manifest    []byte // canonical result manifest (StateDone)

	// Shard bookkeeping (sharded dispatch only): how many trial-range
	// shards the job split into, how many dispatches were re-issued after
	// a worker failure or timeout, and a monotone count of trials covered
	// by completed shards (progress for remote shards, whose trials never
	// tick this process's trace ring).
	shards        int
	shardReissues int
	shardTrials   int64
}

// newJob builds a queued job.
func newJob(id, hash string, spec *JobSpec, timeout time.Duration, tl *trace.Timeline) *Job {
	total := int64(spec.Trials)
	return &Job{
		ID:          id,
		Hash:        hash,
		Spec:        spec,
		Timeout:     timeout,
		Timeline:    tl,
		done:        make(chan struct{}),
		state:       StateQueued,
		trialsTotal: total,
		created:     time.Now(),
	}
}

// TraceLabel names the job's Monte-Carlo runs in the structured tracer —
// the key the SSE cascade stream filters the ring on.
func (j *Job) TraceLabel() string { return "job:" + j.ID }

// Status is a point-in-time copy of the mutable job fields.
type Status struct {
	ID            string
	Hash          string
	State         State
	Err           string
	Attempts      int
	TrialsDone    int64
	TrialsTotal   int64
	Shards        int
	ShardReissues int
	Created       time.Time
	Started       time.Time
	Finished      time.Time
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:            j.ID,
		Hash:          j.Hash,
		State:         j.state,
		Err:           j.err,
		Attempts:      j.attempts,
		TrialsDone:    j.trialsDone,
		TrialsTotal:   j.trialsTotal,
		Shards:        j.shards,
		ShardReissues: j.shardReissues,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
	}
}

// noteShards records the job's shard count.
func (j *Job) noteShards(n int) {
	j.mu.Lock()
	j.shards = n
	j.mu.Unlock()
}

// noteShardReissue counts one shard dispatch re-issued after a worker
// failure or timeout.
func (j *Job) noteShardReissue() {
	j.mu.Lock()
	j.shardReissues++
	j.mu.Unlock()
}

// addShardTrials advances the shard-completed trial counter.
func (j *Job) addShardTrials(n int64) {
	j.mu.Lock()
	j.shardTrials += n
	j.mu.Unlock()
}

// shardTrialsDone reads the shard-completed trial counter.
func (j *Job) shardTrialsDone() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shardTrials
}

// Manifest returns the canonical result bytes, nil unless StateDone.
func (j *Job) Manifest() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// Done exposes the terminal-transition channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning marks the start of the job's execution.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.attempts++
	if j.started.IsZero() {
		j.started = time.Now()
	}
}

// setProgress updates the live trial counter (clamped to the total).
func (j *Job) setProgress(done int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if done < 0 {
		done = 0
	}
	if j.trialsTotal > 0 && done > j.trialsTotal {
		done = j.trialsTotal
	}
	j.trialsDone = done
}

// finish performs the terminal transition exactly once.
func (j *Job) finish(state State, manifest []byte, errMsg string) {
	j.mu.Lock()
	already := j.state.Terminal()
	if !already {
		j.state = state
		j.manifest = manifest
		j.err = errMsg
		j.finished = time.Now()
		if state == StateDone && j.trialsTotal > 0 {
			j.trialsDone = j.trialsTotal
		}
	}
	j.mu.Unlock()
	if !already {
		close(j.done)
	}
}

// completeFromCache marks a freshly created job done with a cached manifest
// — the dedup fast path, which never touches the queue.
func (j *Job) completeFromCache(manifest []byte) {
	j.finish(StateDone, manifest, "")
}

// store holds every job plus the two dedup indexes: the in-flight
// singleflight map (hash → live job) and the content-addressed result
// cache (hash → manifest bytes), optionally persisted to a directory.
type store struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job   // queued/running job per hash
	results  map[string][]byte // completed manifests per hash
	partials map[string][]byte // encoded partial manifests per partialKey
	nextID   int
	dir      string // "" = memory only
}

func newStore(dir string) *store {
	return &store{
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		results:  make(map[string][]byte),
		partials: make(map[string][]byte),
		dir:      dir,
	}
}

// resultPath is the on-disk address of a manifest.
func (st *store) resultPath(hash string) string {
	return filepath.Join(st.dir, hash+".json")
}

// lookupResult consults the in-memory result cache, falling back to the
// persistent directory (so identical queries stay one solve across server
// restarts). Unreadable, corrupt and stale files — another schema version,
// or a manifest answering a different hash — are treated as misses,
// mirroring the stress cache's corruption-is-a-miss policy; the recomputed
// result then overwrites them.
func (st *store) lookupResult(hash string) ([]byte, bool) {
	st.mu.Lock()
	if buf, ok := st.results[hash]; ok {
		st.mu.Unlock()
		return buf, true
	}
	dir := st.dir
	st.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	buf, err := os.ReadFile(st.resultPath(hash))
	if err != nil || !currentManifest(buf, hash) {
		return nil, false
	}
	st.mu.Lock()
	st.results[hash] = buf
	st.mu.Unlock()
	return buf, true
}

// currentManifest reports whether buf decodes as a result manifest of the
// current schema answering hash.
func currentManifest(buf []byte, hash string) bool {
	var m struct {
		SchemaVersion int    `json:"schema_version"`
		ContentHash   string `json:"content_hash"`
	}
	return json.Unmarshal(buf, &m) == nil && m.SchemaVersion == manifestSchemaVersion && m.ContentHash == hash
}

// saveResult records a completed manifest in memory and, when configured,
// on disk (atomic write-then-rename, so a torn write can never be read
// back as a result).
func (st *store) saveResult(hash string, manifest []byte) error {
	st.mu.Lock()
	st.results[hash] = manifest
	dir := st.dir
	st.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: result dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: result temp: %w", err)
	}
	if _, err := tmp.Write(manifest); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: writing result: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: closing result: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.resultPath(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: publishing result: %w", err)
	}
	return nil
}

// partialPathFor is the on-disk address of a partial manifest: the spec
// hash plus the trial range it covers.
func (st *store) partialPathFor(hash string, start, count int) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s.part-%d+%d.json", hash, start, count))
}

// lookupPartial consults the content-addressed partial cache — memory
// first, then the persistent directory. Corrupt or unreadable files are
// misses.
func (st *store) lookupPartial(hash string, start, count int) ([]byte, bool) {
	key := partialKey(hash, start, count)
	st.mu.Lock()
	if buf, ok := st.partials[key]; ok {
		st.mu.Unlock()
		return buf, true
	}
	dir := st.dir
	st.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	buf, err := os.ReadFile(st.partialPathFor(hash, start, count))
	if err != nil || len(buf) == 0 {
		return nil, false
	}
	st.mu.Lock()
	st.partials[key] = buf
	st.mu.Unlock()
	return buf, true
}

// savePartial records an encoded partial manifest in memory and, when
// configured, on disk (atomic write-then-rename like saveResult).
func (st *store) savePartial(hash string, start, count int, buf []byte) error {
	key := partialKey(hash, start, count)
	st.mu.Lock()
	st.partials[key] = buf
	dir := st.dir
	st.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: partial dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+hash+".part.tmp*")
	if err != nil {
		return fmt.Errorf("serve: partial temp: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: writing partial: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: closing partial: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.partialPathFor(hash, start, count)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: publishing partial: %w", err)
	}
	return nil
}

// create registers a new job under the next ID.
func (st *store) create(hash string, spec *JobSpec, timeout time.Duration, tl *trace.Timeline) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	short := hash
	if len(short) > 8 {
		short = short[:8]
	}
	j := newJob(fmt.Sprintf("j-%d-%s", st.nextID, short), hash, spec, timeout, tl)
	st.jobs[j.ID] = j
	return j
}

// remove drops a job that lost the singleflight race (or never admitted)
// from the ID index.
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, id)
}

// get returns a job by ID.
func (st *store) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// claimInflight installs job as the hash's in-flight execution unless one
// already exists, returning the incumbent and false on conflict — the
// singleflight admission step.
func (st *store) claimInflight(job *Job) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.inflight[job.Hash]; ok {
		return cur, false
	}
	st.inflight[job.Hash] = job
	return job, true
}

// releaseInflight clears the hash's in-flight slot if job still owns it.
func (st *store) releaseInflight(job *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.inflight[job.Hash]; ok && cur == job {
		delete(st.inflight, job.Hash)
	}
}
