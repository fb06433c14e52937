package trace

import "sync"

// TrialSummary is the compact cascade digest the live ring stores for each
// completed trial. Times are simulated seconds; TTF and SpecTime are +Inf /
// NaN-free only in the sense that +Inf means "criterion never fired" and
// SpecTime < 0 means "no spec violation recorded".
type TrialSummary struct {
	Run      string
	Seq      int64
	Trial    int
	Failures int
	// TTF is the system TTF (+Inf when the criterion never fired).
	TTF float64
	// FirstComp/FirstLabel/FirstTime describe the first component failure;
	// FirstComp is -1 when the trial had no failures.
	FirstComp  int
	FirstLabel string
	FirstTime  float64
	// SpecTime is the time the system criterion fired, -1 when it did not.
	SpecTime float64
	// MaxRate is the largest post-redistribution aging rate observed.
	MaxRate float64
}

// Ring holds the summaries of the last N completed trials, fed live (in
// completion order, which is nondeterministic under RunParallel — the ring
// is a monitoring sample, not part of the deterministic export path).
type Ring struct {
	mu      sync.Mutex
	entries []TrialSummary
	next    int
	filled  int
	total   int64
}

// LiveRingSize is the trial window of the live rings emserve and the CLI
// monitors keep: job progress, SSE cascade streams and /status read it.
const LiveRingSize = 1024

// NewRing returns a ring keeping the last n trials (n < 1 selects 64).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 64
	}
	return &Ring{entries: make([]TrialSummary, n)}
}

func (r *Ring) add(s TrialSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[r.next] = s
	r.next = (r.next + 1) % len(r.entries)
	if r.filled < len(r.entries) {
		r.filled++
	}
	r.total++
}

// Total returns how many trials have passed through the ring.
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns the most recently completed trial's summary.
func (r *Ring) Last() (TrialSummary, bool) {
	if r == nil {
		return TrialSummary{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled == 0 {
		return TrialSummary{}, false
	}
	return r.entries[(r.next-1+len(r.entries))%len(r.entries)], true
}

// Occupancy returns how many summaries the ring currently retains.
func (r *Ring) Occupancy() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// Cap returns the ring's capacity (how many summaries it can retain).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// Snapshot returns the retained summaries, oldest first.
func (r *Ring) Snapshot() []TrialSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TrialSummary, 0, r.filled)
	start := r.next - r.filled
	for i := 0; i < r.filled; i++ {
		out = append(out, r.entries[(start+i+len(r.entries))%len(r.entries)])
	}
	return out
}
