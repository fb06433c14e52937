package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emvia/internal/atomicfile"
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
	trialsDone  int64 // frozen at finish; a running job reads progress()
	trialsTotal int64
	ring        *trace.Ring // the trace ring the running job's trials tick
	ringStart   int64       // the ring's total when the job started
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
		TrialsDone:    j.progress(),
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

// progress returns the trials done: frozen once the job is terminal, else
// for a running job the larger of the ring delta since it started and the
// shard-completed count, clamped to the total. Remote shards complete trials
// off this process's ring, and a local shard's trials tick both, so the two
// are never summed. The caller holds j.mu.
func (j *Job) progress() int64 {
	if j.state != StateRunning {
		return j.trialsDone
	}
	done := max(j.ring.Total()-j.ringStart, j.shardTrials, 0)
	if j.trialsTotal > 0 {
		done = min(done, j.trialsTotal)
	}
	return done
}

// Manifest returns the canonical result bytes, nil unless StateDone.
func (j *Job) Manifest() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// Done exposes the terminal-transition channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning marks the start of the job's execution, whose trials tick
// ring.
func (j *Job) setRunning(ring *trace.Ring) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.ring, j.ringStart = ring, ring.Total()
	if j.started.IsZero() {
		j.started = time.Now()
	}
}

// finish performs the terminal transition exactly once.
func (j *Job) finish(state State, manifest []byte, errMsg string) {
	j.mu.Lock()
	already := j.state.Terminal()
	if !already {
		j.trialsDone = j.progress()
		if state == StateDone && j.trialsTotal > 0 {
			j.trialsDone = j.trialsTotal
		}
		j.state = state
		j.manifest = manifest
		j.err = errMsg
		j.finished = time.Now()
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

// maxTerminalJobs bounds the finished jobs the store keeps addressable by
// ID, and the manifests it keeps in memory. Clients fetch a result right
// after submitting, and the manifest itself stays in the content-addressed
// cache, so an evicted ID costs nothing but a 404. An evicted manifest is
// read back from the result directory, or without one recomputed to the
// same bytes.
const maxTerminalJobs = 1024

// store holds every live job and the most recent maxTerminalJobs finished
// ones, plus the two dedup indexes: the in-flight singleflight map (hash →
// live job) and the content-addressed file cache of result manifests
// (<hash>.json) and partial manifests (<hash>.part-<start>+<count>.json).
// The file cache keeps the last maxTerminalJobs names in memory and, when
// dir is set, every name on disk, where an evicted name is read back from.
type store struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job   // queued/running job per hash
	files    map[string][]byte // result and partial manifests per file name
	retired  ring              // terminal job IDs in the order they finished
	stored   ring              // names in files in the order they were stored
	nextID   int
	dir      string // "" = memory only
}

// ring holds the last maxTerminalJobs keys pushed, in order.
type ring struct {
	keys []string
	next int // once full, the oldest key, which the next push evicts
}

// push appends key, returning the key it evicts once the ring is full.
func (r *ring) push(key string) (evicted string, ok bool) {
	if len(r.keys) < maxTerminalJobs {
		r.keys = append(r.keys, key)
		return "", false
	}
	evicted = r.keys[r.next]
	r.keys[r.next] = key
	r.next = (r.next + 1) % maxTerminalJobs
	return evicted, true
}

func newStore(dir string) *store {
	return &store{
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		files:    make(map[string][]byte),
		dir:      dir,
	}
}

// resultName is the file name of a result manifest.
func resultName(hash string) string { return hash + ".json" }

// partialName is the file name of a partial manifest: the spec hash plus
// the trial range it covers.
func partialName(hash string, r trialRange) string {
	return fmt.Sprintf("%s.part-%d+%d.json", hash, r.start, r.count)
}

// get returns the bytes stored under name: memory first, then the
// persistent directory (so identical queries stay one solve across server
// restarts). A file that is unreadable or that valid rejects — corrupt,
// another schema version, an answer to a different question — is a miss,
// mirroring the stress cache's corruption-is-a-miss policy; the recomputed
// answer then overwrites it.
func (st *store) get(name string, valid func([]byte) bool) ([]byte, bool) {
	st.mu.Lock()
	buf, ok := st.files[name]
	st.mu.Unlock()
	if ok || st.dir == "" {
		return buf, ok
	}
	buf, err := os.ReadFile(filepath.Join(st.dir, name))
	if err != nil || !valid(buf) {
		return nil, false
	}
	st.mu.Lock()
	st.keep(name, buf)
	st.mu.Unlock()
	return buf, true
}

// keep records buf under name in memory, evicting the name stored longest
// ago once maxTerminalJobs are kept; a name still kept is overwritten in
// place. The caller holds st.mu.
func (st *store) keep(name string, buf []byte) {
	if _, ok := st.files[name]; !ok {
		if old, ok := st.stored.push(name); ok {
			delete(st.files, old)
		}
	}
	st.files[name] = buf
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

// put records buf under name in memory and, when configured, on disk
// through atomicfile.Write, so a torn write can never be read back and a
// killed writer's temp files go with the name's next put.
func (st *store) put(name string, buf []byte) error {
	st.mu.Lock()
	st.keep(name, buf)
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	// <hash>.json writes through .<hash>.tmp*, the temp name of every earlier
	// version too, so the sweep also removes their leftovers.
	tmpPrefix := "." + strings.TrimSuffix(name, ".json") + ".tmp"
	if err := atomicfile.Write(st.dir, name, tmpPrefix, buf); err != nil {
		return fmt.Errorf("serve: storing %s: %w", name, err)
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

// retire records that a job reached its terminal state, evicting the
// oldest terminal job once maxTerminalJobs are kept. Only terminal jobs are
// retired, so a queued or running job is never evicted.
func (st *store) retire(job *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.retired.push(job.ID); ok {
		delete(st.jobs, old)
	}
}

// job returns a job by ID.
func (st *store) job(id string) (*Job, bool) {
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
