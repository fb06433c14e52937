package pdn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"emvia/internal/spice"
	"emvia/internal/telemetry"
)

// An IR-drop trial opens via arrays one after another (paper §5.2,
// Algorithm 1 step 2), and each opening redistributes the grid current. The
// trial serves every opening from the shared pristine factor instead of
// downdating and re-solving it.
//
// Opening the array of resistance R between free terminals fa and fb edits
// the free-node matrix by A → A − R⁻¹·u·uᵀ with u = e_fa − e_fb (a pinned
// terminal drops out of u). After r openings with update columns
// U = [u_1 … u_r], pristine responses Z = A₀⁻¹U and R_r = diag(R_j), the
// Woodbury identity gives A_r⁻¹ = A₀⁻¹ + Z·S⁻¹·Zᵀ with the capacitance
// matrix S = R_r − UᵀZ. S is symmetric positive definite — it is the Schur
// complement of an SPD block matrix — and grows by one row and column per
// opening, so the trial keeps its Cholesky factor L and extends it. Opening
// array v with response z = A₀⁻¹u_v then takes
//
//	t = Uᵀz                          O(r): entries z[fa_j] − z[fb_j]
//	L·l = −t, pivot = R_v − uᵀz − l·l O(r²)
//	y = S⁻¹t = −L⁻ᵀl                  O(r²)
//	x ← x + (Δ/pivot)·(z + Z·y)       O(n·r), shared cached vectors only
//
// where z + Z·y = A_r⁻¹u_v, Δ is the array's full-space voltage drop in the
// current solution x (a pinned terminal contributes its pad voltage, which
// folds the pad's right-hand-side term in exactly), and the new row of L is
// [l, √pivot].
// Per instance that is O(n + r²) memory; the responses z live in a cache
// shared by every worker of a master.
//
// A step whose rank has reached the cap, or whose pivot says the opening
// leaves a node hanging on the gmin leak, is not taken. The trial rebases
// instead: it refactors a private numeric copy of the shared factor with
// every array it has failed so far open, solves that system, and restarts
// the cascade at rank 0 on it. The shared circuit and factor are never
// written.

// viaTerms is the edit vector of one via array over the free nodes.
type viaTerms struct {
	fa, fb int     // free terminals; −1 when pinned or grounded
	va, vb float64 // pinned voltages of non-free terminals (0 for ground)
	g, r   float64 // conductance as stamped, and resistance
}

// pinned reports whether neither terminal is free: opening the array leaves
// the free system unchanged.
func (t viaTerms) pinned() bool { return t.fa < 0 && t.fb < 0 }

// dot returns uᵀx.
func (t viaTerms) dot(x []float64) float64 {
	v := 0.0
	if t.fa >= 0 {
		v += x[t.fa]
	}
	if t.fb >= 0 {
		v -= x[t.fb]
	}
	return v
}

// drop returns the full-space voltage across the array in free solution x.
func (t viaTerms) drop(x []float64) float64 {
	a, b := t.va, t.vb
	if t.fa >= 0 {
		a = x[t.fa]
	}
	if t.fb >= 0 {
		b = x[t.fb]
	}
	return a - b
}

// cascadeCrossover is the update rank, in units of nnz(L)/n, at which a
// trial rebases (cascadeRankCap). A step on the pristine base costs O(n·r);
// a rebase costs a numeric refactor, and afterwards every opening of the
// trial pays a triangular solve for its response, because a rebase's
// responses are trial-local. BenchmarkCascadeCrossover measured, over 14
// runs on the AMD-ordered nx64 grid of the ir-cascade benchmark
// (n = 8 023, nnz(L)/n ≈ 17.6) on a 2-CPU Intel Xeon host: a rank-32 step
// 0.19–0.29 ms (median 0.24, ≈ 7.4 µs per rank), a rebase with 32 arrays
// open 8.1–11.8 ms (median 9.7), one response solve against it
// 0.38–0.57 ms (median 0.45). A single step costs a whole rebase only near
// rank 1 300 (71–82·nnz(L)/n, median ≈ 76), but a step past rank ≈ 61
// already costs more than a post-rebase step's solve. At the cap,
// ⌈9·nnz(L)/n⌉ = 159 on that grid, a step costs about 2.6 post-rebase
// steps, so a rebase there pays for itself within about 13 more failures;
// below rank ≈ 61 it never would. 159 is also above that workload's longest
// cascade (69 failures), so its trials never rebase.
const cascadeCrossover = 9

// cascadeRankCap is the update rank at which a trial rebases (see
// cascadeCrossover).
func cascadeRankCap(n, nnzL int) int {
	if n == 0 {
		return 0
	}
	return int(math.Ceil(cascadeCrossover * float64(nnzL) / float64(n)))
}

// hangGmins is the pivot guard of a cascade step, in units of the circuit's
// gmin leak. Opening an array of resistance R whose terminals stay joined by
// resistance R′ elsewhere has pivot R²/(R+R′); it falls below
// hangGmins·gmin·R² only when that remaining connection conducts less than
// hangGmins·gmin — a terminal hanging on the leak, where the update cancels
// catastrophically. The trial then rebases, and the hanging node drifts on
// the leak in the refactored system.
const hangGmins = 1e3

// Rebase reasons (telemetry.CascadeFallbacks labels).
const (
	rebaseRank  = "rank"
	rebasePivot = "pivot"
)

// responseBudget caps a response cache at this many times nnz(L) floats, the
// footprint of twelve factors. The ir-cascade benchmark's jobs use 156–166
// responses of its nx64 grid, 8.9–9.5·nnz(L) floats; at 8·nnz(L) the
// overflow is solved again trial by trial, and a job's solves rise by half.
const responseBudget = 12

// responseCache holds the pristine responses A₀⁻¹u of opened via arrays,
// one cache per master system, shared by its clones. An entry is published
// once and never changes, so readers load it lock-free; only publishing takes
// the lock. Every path that solves for a response — a batched prefill or a
// single miss — produces the same bits, so which worker published an entry
// never shows in a result.
type responseCache struct {
	entries []atomic.Pointer[[]float64]
	mu      sync.Mutex
	room    int // entries the budget still admits; guarded by mu
}

func newResponseCache(arrays, n, nnzL int) *responseCache {
	c := &responseCache{entries: make([]atomic.Pointer[[]float64], arrays)}
	if n > 0 {
		c.room = responseBudget * nnzL / n
	}
	return c
}

// get returns array k's response, or nil when it is not cached.
func (c *responseCache) get(k int) []float64 {
	if p := c.entries[k].Load(); p != nil {
		return *p
	}
	return nil
}

// free returns how many more entries the budget admits.
func (c *responseCache) free() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.room
}

// publish offers z as array k's response. It returns z with taken set when
// the cache keeps it (the caller must never write z again), the entry
// another worker published first, or nil when the budget is spent.
func (c *responseCache) publish(k int, z []float64) (entry []float64, taken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.entries[k].Load(); p != nil {
		return *p, false
	}
	if c.room == 0 {
		return nil, false
	}
	c.room--
	c.entries[k].Store(&z)
	return z, true
}

// cascade is one trial's low-rank state (see the top of this file).
type cascade struct {
	// base is the rank-0 solution the updates start from: the shared
	// pristine solution, or that of the trial's latest rebase. rb is the
	// rebase's opened circuit (nil on the pristine base) and yb the storage
	// of its solution.
	base []float64
	rb   *spice.Circuit
	yb   []float64

	x    []float64   // free-node solution after the openings since base
	cols []int       // arrays of the update columns, in opening order
	zs   [][]float64 // their responses against the base
	l    []float64   // L packed by rows: row j holds j+1 entries from j(j+1)/2
	y    []float64   // rank-sized scratch
	// local holds responses solved here that the shared cache did not take
	// or, after a rebase, every response; the first nlocal serve the running
	// trial.
	local  [][]float64
	nlocal int
}

// restart empties the cascade onto a new base, keeping every buffer.
func (c *cascade) restart(base []float64, rb *spice.Circuit) {
	c.base, c.rb = base, rb
	c.cols = c.cols[:0]
	c.zs = c.zs[:0]
	c.l = c.l[:0]
	c.nlocal = 0
}

// solution returns the free-node solution after the trial's openings.
func (c *cascade) solution() []float64 {
	if len(c.cols) > 0 {
		return c.x
	}
	return c.base
}

// cascadeMetrics holds the cascade's telemetry handles, fetched once per
// master and shared by its clones; all nil when telemetry is disabled.
type cascadeMetrics struct {
	steps, hits, prefills, misses *telemetry.Counter
	rankRebases, pivotRebases     *telemetry.Counter
}

func newCascadeMetrics() cascadeMetrics {
	r := telemetry.Default()
	return cascadeMetrics{
		steps:        r.Counter(telemetry.CascadeSteps),
		hits:         r.Counter(telemetry.CascadeResponseHits),
		prefills:     r.Counter(telemetry.CascadeResponseFills("prefill")),
		misses:       r.Counter(telemetry.CascadeResponseFills("miss")),
		rankRebases:  r.Counter(telemetry.CascadeFallbacks(rebaseRank)),
		pivotRebases: r.Counter(telemetry.CascadeFallbacks(rebasePivot)),
	}
}

// open applies array k's opening to the running trial and returns its new
// free-node solution: a cascade step while the step's rank and pivot allow
// it, a rebase otherwise.
func (s *GridSystem) open(k int) ([]float64, error) {
	reason, err := s.step(k)
	if err != nil {
		return nil, err
	}
	switch reason {
	case "":
		s.met.steps.Inc()
		return s.casc.solution(), nil
	case rebaseRank:
		s.met.rankRebases.Inc()
	case rebasePivot:
		s.met.pivotRebases.Inc()
	}
	return s.rebase()
}

// rebase restarts the running trial's cascade at rank 0 on a private base:
// the grid with every array the trial has failed so far open. The shared
// circuit's Open stamps those values through compile's code and refactors a
// private numeric copy of the shared factor on its symbolic structure. The
// base's solution, solved through the instance's scratch operating point, is
// the trial's new state; later openings update it with responses solved
// against the base and kept trial-local, since the shared cache holds
// pristine responses only.
func (s *GridSystem) rebase() ([]float64, error) {
	ris := make([]int, len(s.failed))
	for i, k := range s.failed {
		ris[i] = s.cfg.Grid.Vias[k].ResistorIndex
	}
	rb, err := s.circuit.Open(ris)
	if err != nil {
		return nil, err
	}
	if s.rbOP == nil {
		s.rbOP = s.circuit.NewOP()
	}
	if err := rb.SolveDCInto(s.rbOP); err != nil {
		return nil, err
	}
	c := &s.casc
	if c.yb == nil {
		c.yb = make([]float64, len(s.y0))
	}
	c.restart(c.yb, rb)
	return c.base, rb.GatherFree(c.base, s.rbOP)
}

// step opens array k on the low-rank path. Instead it returns the reason to
// rebase, leaving the cascade as it was, when the rank has reached its cap
// or the pivot guard trips.
func (s *GridSystem) step(k int) (string, error) {
	tk := s.terms[k]
	if tk.pinned() {
		return "", nil
	}
	c := &s.casc
	r := len(c.cols)
	if r >= s.rankCap {
		return rebaseRank, nil
	}
	z, err := s.response(k)
	if err != nil {
		return "", err
	}
	if c.x == nil {
		c.x = make([]float64, len(s.y0))
	}
	c.y = slices.Grow(c.y[:0], r)[:r]
	// The new row of L solves L·l = −t in place (t_j = u_jᵀz); the pivot is
	// what the Cholesky extension leaves on its diagonal.
	off := r * (r + 1) / 2
	c.l = slices.Grow(c.l, r+1)[:off+r+1]
	row := c.l[off:]
	for j, kj := range c.cols {
		row[j] = -s.terms[kj].dot(z)
	}
	pivot := tk.r - tk.dot(z)
	for i := 0; i < r; i++ {
		li := c.l[i*(i+1)/2:]
		v := row[i]
		for j := 0; j < i; j++ {
			v -= li[j] * row[j]
		}
		v /= li[i]
		row[i] = v
		pivot -= v * v
	}
	if !(pivot >= hangGmins*s.circuit.Gmin()*tk.r*tk.r) {
		c.l = c.l[:off]
		return rebasePivot, nil
	}
	row[r] = math.Sqrt(pivot)
	for i := r - 1; i >= 0; i-- { // y = −L⁻ᵀ·l
		v := -row[i]
		for j := i + 1; j < r; j++ {
			v -= c.l[j*(j+1)/2+i] * c.y[j]
		}
		c.y[i] = v / c.l[i*(i+1)/2+i]
	}
	x := c.solution()
	coef := tk.drop(x) / pivot
	for j := range c.y {
		c.y[j] *= coef
	}
	advance(c.x, x, coef, z, c.y, c.zs)
	c.cols = append(c.cols, k)
	c.zs = append(c.zs, z)
	return "", nil
}

// advance sets x = base + a·z + Σ_j y_j·zs[j] (x may alias base), four
// columns per pass over x. Each entry accumulates in column order, exactly
// as one axpy per column would.
func advance(x, base []float64, a float64, z, y []float64, zs [][]float64) {
	n := len(x)
	base, z = base[:n], z[:n]
	for i := range x {
		x[i] = base[i] + a*z[i]
	}
	j := 0
	for ; j+4 <= len(y); j += 4 {
		p, q, r, t := zs[j][:n], zs[j+1][:n], zs[j+2][:n], zs[j+3][:n]
		yp, yq, yr, yt := y[j], y[j+1], y[j+2], y[j+3]
		for i := range x {
			x[i] = x[i] + yp*p[i] + yq*q[i] + yr*r[i] + yt*t[i]
		}
	}
	for ; j < len(y); j++ {
		p, yp := zs[j][:n], y[j]
		for i := range x {
			x[i] += yp * p[i]
		}
	}
}

// response returns array k's response against the cascade's base. On the
// pristine base it comes from the shared cache, or is solved here and
// offered to it; a response the full cache does not take, and every response
// against a rebase, stays in this instance's local storage for the rest of
// the trial.
func (s *GridSystem) response(k int) ([]float64, error) {
	c := &s.casc
	base := s.circuit
	if c.rb != nil {
		base = c.rb
	} else if z := s.cache.get(k); z != nil {
		s.met.hits.Inc()
		return z, nil
	}
	if c.nlocal == len(c.local) {
		c.local = append(c.local, nil)
	}
	z := c.local[c.nlocal]
	if z == nil {
		z = make([]float64, len(s.y0))
	}
	if err := s.solveResponses(base, z, []int{k}); err != nil {
		return nil, err
	}
	s.met.misses.Inc()
	if c.rb != nil {
		c.nlocal++
		return z, nil
	}
	entry, taken := s.cache.publish(k, z)
	if taken {
		c.local[c.nlocal] = nil
		return z, nil
	}
	c.local[c.nlocal] = z
	if entry == nil {
		c.nlocal++
		return z, nil
	}
	return entry, nil
}

// fillResponses solves the responses of arrays ks in one batched sweep and
// publishes them, as many as the cache budget admits.
func (s *GridSystem) fillResponses(ks []int) error {
	m := min(len(ks), s.cache.free())
	if m == 0 {
		return nil
	}
	n := len(s.y0)
	slab := make([]float64, m*n)
	if err := s.solveResponses(s.circuit, slab, ks[:m]); err != nil {
		return fmt.Errorf("pdn: preparing trial group: %w", err)
	}
	s.met.prefills.Add(int64(m))
	for i, k := range ks[:m] {
		s.cache.publish(k, slab[i*n:(i+1)*n:(i+1)*n])
	}
	return nil
}

// solveResponses solves A·z = u_k against base — the shared pristine circuit
// or a rebase — for each array of ks into the stacked vectors of dst,
// reading base's factor with this instance's scratch.
func (s *GridSystem) solveResponses(base *spice.Circuit, dst []float64, ks []int) error {
	n := len(s.y0)
	s.rhs = slices.Grow(s.rhs[:0], len(ks)*n)[:len(ks)*n]
	for i, k := range ks {
		t := s.terms[k]
		if t.fa >= 0 {
			s.rhs[i*n+t.fa] = 1
		}
		if t.fb >= 0 {
			s.rhs[i*n+t.fb] = -1
		}
	}
	err := base.SolveFreeBatch(&s.ws, dst, s.rhs, len(ks))
	for i, k := range ks {
		t := s.terms[k]
		if t.fa >= 0 {
			s.rhs[i*n+t.fa] = 0
		}
		if t.fb >= 0 {
			s.rhs[i*n+t.fb] = 0
		}
	}
	return err
}
