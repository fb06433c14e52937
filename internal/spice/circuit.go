package spice

import (
	"fmt"
	"math"

	"emvia/internal/par"
	"emvia/internal/solver"
	"emvia/internal/sparse"
	"emvia/internal/trace"
)

// Tunables of the incremental re-solve engine.
const (
	// defaultTol is the CG relative-residual tolerance.
	defaultTol = 1e-7
	// defaultDirectMaxNodes is the free-node count at and below which solves
	// use a cached dense Cholesky factor maintained by rank-one updates
	// instead of preconditioned CG. At a few hundred unknowns the O(n²)
	// triangular solves beat CG iteration, and failure edits become O(n²)
	// factor updates instead of fresh Krylov solves.
	defaultDirectMaxNodes = 256
	// supernodalMinNodes is the free-node count at and above which the sparse
	// direct path uses the blocked supernodal factorization instead of the
	// scalar up-looking one. Below it the scalar factor's lower constant wins;
	// above it the supernodal panels amortize indexing across dense columns
	// and the elimination-tree level schedule can use the solver worker pool.
	supernodalMinNodes = 2048
	// sparseUpdateBudget caps how many rank-one factor updates may accumulate
	// between solves on the sparse direct path. A failure cascade edits one
	// resistor per solve and never comes near it; a bulk value push (load
	// re-tuning rescales every wire) would cost thousands of etree-path
	// updates, where a single refactorization over the static structure is
	// far cheaper — so past the budget the factor is just marked stale and
	// the next solve refactors once.
	sparseUpdateBudget = 32
	// precondRefreshEdits is the staleness budget K: a Refreshable
	// preconditioner is refactored in place once this many resistor edits
	// have accumulated since it last matched the matrix. Below the budget
	// the stale factor is knowingly reused — after few failures it remains
	// an excellent (and still SPD, hence valid) preconditioner.
	precondRefreshEdits = 16
)

// Circuit is a compiled netlist ready for repeated DC solves with mutable
// resistor values — the operation the EM failure simulation performs after
// every via-array failure. The first solve compiles a fixed-pattern linear
// system (the gmin leak puts every free node on the diagonal and disabled
// resistors stay in the pattern), after which every resistor edit is an
// in-place O(4) value update and re-solves reuse all buffers and factors.
type Circuit struct {
	// Tol is the relative residual tolerance of the iterative solve path.
	// Zero selects the default 1e-7.
	Tol float64
	// DirectMaxNodes bounds the free-node count for the direct dense-factor
	// path. Zero selects the default 256; negative disables the direct path.
	// It is consulted when the solve pattern is first compiled, so set it
	// before the first solve.
	DirectMaxNodes int
	// Solver selects the backend. The zero value defers to the process-wide
	// default (normally SolverAuto: dense up to DirectMaxNodes, sparse
	// Cholesky above). Like DirectMaxNodes it is consulted when the solve
	// pattern is first compiled.
	Solver SolverMode

	names []string
	index map[string]int

	fixed   []float64 // pad voltage per node; NaN when the node is free
	freeIdx []int     // equation index per node, -1 for pads
	nFree   int

	res []cResistor
	cur []cCurrent

	gmin float64

	asm *assembly // compiled fixed-pattern system; nil until the first solve

	// Preconditioner cache for the iterative path. precondGen records the
	// assembly generation the preconditioner last matched, so SolveDC can
	// tell exactly how stale it is: Updatable preconditioners are kept
	// current eagerly, Refreshable ones refresh on the staleness policy
	// (edit budget or CG iteration drift), and any reuse in between is a
	// deliberate policy decision rather than a forgotten invalidation.
	precond           solver.Preconditioner
	precondIters      int // iteration count right after the cache was (re)built
	precondGen        uint64
	editsSinceRefresh int

	// met holds telemetry handles fetched once at compile; all nil (no-op)
	// when telemetry is disabled.
	met circuitMetrics
}

type cResistor struct {
	name     string
	a, b     int // node indices, -1 = ground
	cond     float64
	disabled bool
}

type cCurrent struct {
	a, b int
	amps float64
}

// resSlots caches the nnz slots and RHS coupling of one resistor so a
// conductance change applies as at most four in-place matrix edits plus at
// most two RHS edits.
type resSlots struct {
	aa, bb, ab, ba int     // matrix value slots; -1 when the entry does not exist
	fa, fb         int     // free equation index per terminal; -1 for pad or ground
	va, vb         float64 // pinned voltage of a pad terminal (0 for ground or free)
}

// assembly is the compiled fixed-pattern linear system of a circuit. The
// sparsity pattern covers every resistor — disabled ones too — plus the gmin
// leak on every free diagonal, so it is invariant across arbitrary failure
// and repair sequences and every topology edit is a pure value update.
type assembly struct {
	mat   *sparse.CSR
	rhs   []float64
	slots []resSlots // nil until the first edit compiles them (ensureSlots)
	gen   uint64     // bumped on every value edit

	// Pristine snapshots taken right after compilation. ResetResistors
	// restores them verbatim, so every Monte-Carlo trial starts from
	// bit-identical state no matter what previous trials did — the property
	// that keeps parallel runs identical to serial ones.
	mat0 []float64
	rhs0 []float64
	res0 []cResistor

	// Direct path (small grids): cached dense Cholesky factor maintained by
	// rank-one updates/downdates; chol0 is the pristine factor restored at
	// trial reset by memcpy. The factor is built lazily — a one-shot cold
	// solve never pays the O(n³) factorization; only re-solve activity
	// (an edit or a trial reset after the first solve) triggers it.
	direct       bool
	chol         *solver.DenseCholesky
	chol0        *solver.DenseCholesky
	w            []float64 // rank-one update scratch
	needRefactor bool      // a downdate broke down; refactor from mat lazily

	// Sparse direct path (large grids): fill-reducing-ordered sparse Cholesky
	// factor maintained by Davis–Hager edge up/downdates; schol0 is the
	// pristine factor restored at trial reset by memcpy. Unlike the dense
	// path the factor engages eagerly on the first solve — above the dense
	// ceiling the symbolic-plus-numeric factorization already beats a cold
	// preconditioned CG solve, and every re-solve after it is two triangular
	// sweeps over nnz(L). needRefactor is shared with the dense path (only
	// one direct backend is ever active).
	sparseDirect bool
	schol        solver.SparseFactor
	schol0       solver.SparseFactor
	pendingEdits int // factor updates since the last solve (sparseUpdateBudget)

	// Iterative-path scratch: CG workspace and the warm-start vector.
	work solver.Workspace
	x0   []float64
}

// Compile flattens a netlist into solver-ready form. Every voltage source
// pins its node; a node pinned twice with different voltages is an error.
func Compile(nl *Netlist) (*Circuit, error) {
	names := nl.Nodes()
	c := &Circuit{
		names: names,
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		c.index[n] = i
	}
	c.fixed = make([]float64, len(names))
	for i := range c.fixed {
		c.fixed[i] = math.NaN()
	}
	for _, v := range nl.Voltages {
		i, ok := c.index[v.Node]
		if !ok {
			return nil, fmt.Errorf("spice: voltage source %s on unknown node %s", v.Name, v.Node)
		}
		if !math.IsNaN(c.fixed[i]) && c.fixed[i] != v.Volts {
			return nil, fmt.Errorf("spice: node %s pinned to both %g and %g volts", v.Node, c.fixed[i], v.Volts)
		}
		c.fixed[i] = v.Volts
	}
	c.freeIdx = make([]int, len(names))
	for i := range names {
		if math.IsNaN(c.fixed[i]) {
			c.freeIdx[i] = c.nFree
			c.nFree++
		} else {
			c.freeIdx[i] = -1
		}
	}
	nodeOf := func(n string) int {
		if IsGround(n) {
			return -1
		}
		return c.index[n]
	}
	maxCond := 0.0
	for _, r := range nl.Resistors {
		g := 1 / r.Ohms
		if g > maxCond {
			maxCond = g
		}
		c.res = append(c.res, cResistor{name: r.Name, a: nodeOf(r.A), b: nodeOf(r.B), cond: g})
	}
	for _, s := range nl.Currents {
		c.cur = append(c.cur, cCurrent{a: nodeOf(s.A), b: nodeOf(s.B), amps: s.Amps})
	}
	if maxCond == 0 {
		maxCond = 1
	}
	// A vanishing leak to ground keeps the system nonsingular when failures
	// island part of the grid; islanded nodes then drift to 0 V, which
	// correctly registers as a catastrophic IR-drop violation.
	c.gmin = 1e-12 * maxCond
	return c, nil
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.names) }

// NumResistors returns the resistor count (compile order = netlist order).
func (c *Circuit) NumResistors() int { return len(c.res) }

// NodeIndex returns the index of a named node.
func (c *Circuit) NodeIndex(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// NodeName returns the name of node i.
func (c *Circuit) NodeName(i int) string { return c.names[i] }

// IsPad reports whether node i is pinned by a voltage source.
func (c *Circuit) IsPad(i int) bool { return c.freeIdx[i] < 0 }

// Generation returns the topology-edit counter of the compiled system: it
// advances on every resistor value change, disable, enable, and reset, and is
// zero before the first solve. Tests and callers use it to reason about
// preconditioner staleness.
func (c *Circuit) Generation() uint64 {
	if c.asm == nil {
		return 0
	}
	return c.asm.gen
}

// DirectPath reports whether solves use the cached dense factor (small
// systems) rather than preconditioned CG. Decided at first solve.
func (c *Circuit) DirectPath() bool { return c.asm != nil && c.asm.direct }

// PrecondStaleEdits returns how many resistor edits the iterative-path
// preconditioner is currently behind the matrix. Zero means exactly current.
func (c *Circuit) PrecondStaleEdits() int { return c.editsSinceRefresh }

// freeTerm maps a node index (-1 = ground) to its free equation index.
func (c *Circuit) freeTerm(node int) int {
	if node < 0 {
		return -1
	}
	return c.freeIdx[node]
}

// compile builds the fixed sparsity pattern with its numeric content stamped
// directly — a one-shot cold solve pays only for a solver-ready system. The
// per-resistor slot map and the pristine snapshots compile lazily at the
// first edit or reset (ensureSlots), so they cost nothing when no
// incremental edits follow. Called lazily by the first solve so that
// pre-solve SetResistor / DisableResistor calls are folded into the pristine
// state.
func (c *Circuit) compile() {
	c.met = newCircuitMetrics()
	n := c.nFree
	tr := sparse.NewTriplet(n, n, len(c.res)*4+n)
	rhs := make([]float64, n)
	for i := range c.names {
		if fi := c.freeIdx[i]; fi >= 0 {
			tr.Add(fi, fi, c.gmin) // gmin leak anchors every free diagonal
		}
	}
	for _, r := range c.res {
		fa, fb := c.freeTerm(r.a), c.freeTerm(r.b)
		g := r.cond
		if fa >= 0 {
			tr.Add(fa, fa, g)
			if fb >= 0 {
				tr.Add(fa, fb, -g)
			}
		}
		if fb >= 0 {
			tr.Add(fb, fb, g)
			if fa >= 0 {
				tr.Add(fb, fa, -g)
			}
		}
		if r.disabled {
			// Cancel the stamp numerically with a duplicate of opposite
			// sign: ToCSR sums duplicates, leaving the slot in the pattern
			// with value zero — the invariant that keeps later enables pure
			// value updates.
			if fa >= 0 {
				tr.Add(fa, fa, -g)
				if fb >= 0 {
					tr.Add(fa, fb, g)
				}
			}
			if fb >= 0 {
				tr.Add(fb, fb, -g)
				if fa >= 0 {
					tr.Add(fb, fa, g)
				}
			}
		}
	}
	c.stampRHS(rhs, c.res)
	a := &assembly{mat: tr.ToCSR(), rhs: rhs}
	c.asm = a

	limit := c.DirectMaxNodes
	if limit == 0 {
		limit = defaultDirectMaxNodes
	}
	mode := c.Solver
	if mode == SolverDefault {
		mode = DefaultSolver()
	}
	switch mode {
	case SolverDense:
		a.direct = n > 0
	case SolverSparse:
		a.sparseDirect = n > 0
	case SolverCG:
		// Neither direct path; preconditioned CG handles everything.
	default: // SolverAuto
		if n > 0 && limit > 0 && n <= limit {
			a.direct = true
		} else if n > 0 {
			a.sparseDirect = true
		}
	}
	if a.direct {
		a.w = make([]float64, n)
	}
	a.work.Reserve(n)
	a.x0 = make([]float64, n)
}

// SolverBackend reports the backend the compiled circuit actually uses
// ("dense", "sparse" or "cg"); before the first solve it reports how the
// current configuration would resolve. Factorization failures downgrade a
// direct backend to CG, and this reflects that.
func (c *Circuit) SolverBackend() string {
	if c.asm != nil {
		switch {
		case c.asm.direct:
			return SolverDense.String()
		case c.asm.sparseDirect:
			return SolverSparse.String()
		default:
			return SolverCG.String()
		}
	}
	mode := c.Solver
	if mode == SolverDefault {
		mode = DefaultSolver()
	}
	if mode == SolverAuto {
		limit := c.DirectMaxNodes
		if limit == 0 {
			limit = defaultDirectMaxNodes
		}
		if limit > 0 && c.nFree <= limit {
			mode = SolverDense
		} else {
			mode = SolverSparse
		}
	}
	return mode.String()
}

// stampRHS writes the right-hand side of resistor table res and the current
// sources into rhs: pad terms in resistor order, then sources. compile and
// SetCurrents both stamp through it, so a restamped RHS is bit-identical to
// the one a fresh compile of the same values would build.
func (c *Circuit) stampRHS(rhs []float64, res []cResistor) {
	for i := range rhs {
		rhs[i] = 0
	}
	for _, r := range res {
		if r.disabled {
			continue
		}
		// A pad terminal pins its side; its conductance moves to the RHS.
		fa, fb := c.freeTerm(r.a), c.freeTerm(r.b)
		if fa >= 0 && fb < 0 && r.b >= 0 {
			rhs[fa] += r.cond * c.fixed[r.b]
		}
		if fb >= 0 && fa < 0 && r.a >= 0 {
			rhs[fb] += r.cond * c.fixed[r.a]
		}
	}
	for _, s := range c.cur {
		// Current flows a→b through the source: out of node a, into node b.
		if fi := c.freeTerm(s.a); fi >= 0 {
			rhs[fi] -= s.amps
		}
		if fi := c.freeTerm(s.b); fi >= 0 {
			rhs[fi] += s.amps
		}
	}
}

// ensureSlots lazily compiles the incremental-edit machinery: the
// per-resistor slot map and the pristine snapshots ResetResistors restores.
// It must run before the first post-compile mutation of the resistor table so
// the snapshots capture the compiled state — SetResistor, DisableResistor and
// ResetResistors call it ahead of any change. A circuit that only ever does
// one-shot solves never reaches it.
func (c *Circuit) ensureSlots() {
	a := c.asm
	if a == nil || a.slots != nil {
		return
	}
	mat := a.mat
	a.slots = make([]resSlots, len(c.res))
	for k, r := range c.res {
		sl := resSlots{aa: -1, bb: -1, ab: -1, ba: -1, fa: -1, fb: -1}
		if r.a >= 0 {
			if fi := c.freeIdx[r.a]; fi >= 0 {
				sl.fa = fi
			} else {
				sl.va = c.fixed[r.a]
			}
		}
		if r.b >= 0 {
			if fi := c.freeIdx[r.b]; fi >= 0 {
				sl.fb = fi
			} else {
				sl.vb = c.fixed[r.b]
			}
		}
		if sl.fa >= 0 {
			sl.aa = mat.SlotIndex(sl.fa, sl.fa)
			if sl.fb >= 0 {
				sl.ab = mat.SlotIndex(sl.fa, sl.fb)
			}
		}
		if sl.fb >= 0 {
			sl.bb = mat.SlotIndex(sl.fb, sl.fb)
			if sl.fa >= 0 {
				sl.ba = mat.SlotIndex(sl.fb, sl.fa)
			}
		}
		a.slots[k] = sl
	}
	a.mat0 = make([]float64, mat.NNZ())
	mat.CopyValues(a.mat0)
	a.rhs0 = append([]float64(nil), a.rhs...)
	a.res0 = append([]cResistor(nil), c.res...)
}

// applyDelta adds a conductance change dg of one resistor to the matrix
// values and RHS. Pad terms move to the RHS; a ground terminal carries va/vb
// of zero, so its RHS edit degenerates to a no-op.
func (c *Circuit) applyDelta(sl resSlots, dg float64) {
	a := c.asm
	if sl.fa >= 0 {
		a.mat.AddAt(sl.aa, dg)
		if sl.fb >= 0 {
			a.mat.AddAt(sl.ab, -dg)
		} else {
			a.rhs[sl.fa] += dg * sl.vb
		}
	}
	if sl.fb >= 0 {
		a.mat.AddAt(sl.bb, dg)
		if sl.fa >= 0 {
			a.mat.AddAt(sl.ba, -dg)
		} else {
			a.rhs[sl.fb] += dg * sl.va
		}
	}
}

// editResistor propagates an effective-conductance change of resistor i into
// the compiled system and its cached factor or preconditioner. Before the
// first solve there is nothing compiled and the change is simply recorded in
// the resistor table.
func (c *Circuit) editResistor(i int, dg float64) {
	if dg == 0 || c.asm == nil {
		return
	}
	a := c.asm
	a.gen++
	sl := a.slots[i]
	c.applyDelta(sl, dg)
	c.editsSinceRefresh++
	c.met.slotEdits.Inc()
	if a.sparseDirect {
		if a.schol != nil && !a.needRefactor {
			a.pendingEdits++
			if a.pendingEdits > sparseUpdateBudget {
				// A bulk edit burst: one refactorization at the next solve
				// beats continuing to chase it with rank-one updates.
				a.needRefactor = true
				return
			}
			// The edit is rank-one along a structural edge of A, so the
			// sparse factor absorbs it along the elimination-tree path —
			// O(path × column nnz) instead of a refactorization or a fresh
			// Krylov solve.
			s := math.Sqrt(math.Abs(dg))
			if dg > 0 {
				a.schol.UpdateEdge(sl.fa, sl.fb, s)
			} else if err := a.schol.DowndateEdge(sl.fa, sl.fb, s); err != nil {
				// Cancellation broke the downdate; the CSR values are always
				// correct, so refactor from them at the next solve.
				a.needRefactor = true
			}
		}
		return
	}
	if a.direct {
		if a.chol != nil && !a.needRefactor {
			// The edit is rank-one: ΔA = dg·u·uᵀ with u = e_fa − e_fb
			// (dropping pad/ground terminals), so the cached factor absorbs
			// it as a Cholesky update (dg > 0) or downdate (dg < 0).
			s := math.Sqrt(math.Abs(dg))
			w := a.w
			for j := range w {
				w[j] = 0
			}
			if sl.fa >= 0 {
				w[sl.fa] = s
			}
			if sl.fb >= 0 {
				w[sl.fb] = -s
			}
			if dg > 0 {
				a.chol.Update(w)
			} else if err := a.chol.Downdate(w); err != nil {
				// Cancellation broke the downdate; the CSR values are always
				// correct, so refactor from them at the next solve.
				a.needRefactor = true
			}
		}
		return
	}
	if upd, ok := c.precond.(solver.Updatable); ok {
		// Updatable preconditioners absorb the touched diagonals in O(1)
		// and stay exactly current.
		okA := sl.fa < 0 || upd.UpdateDiag(sl.fa, a.mat.ValueAt(sl.aa))
		okB := sl.fb < 0 || upd.UpdateDiag(sl.fb, a.mat.ValueAt(sl.bb))
		if okA && okB {
			c.precondGen = a.gen
			c.editsSinceRefresh = 0
		} else {
			c.precond = nil
		}
	}
}

// SetResistor replaces the value of resistor i (netlist order), re-enabling
// it if it was disabled.
func (c *Circuit) SetResistor(i int, ohms float64) error {
	if i < 0 || i >= len(c.res) {
		return fmt.Errorf("spice: resistor index %d out of range", i)
	}
	if ohms <= 0 {
		return fmt.Errorf("spice: resistor %s set to non-positive %g Ω", c.res[i].name, ohms)
	}
	g := 1 / ohms
	old := 0.0
	if !c.res[i].disabled {
		old = c.res[i].cond
	}
	c.ensureSlots() // snapshot the pre-edit state before mutating
	c.res[i].cond = g
	c.res[i].disabled = false
	c.editResistor(i, g-old)
	return nil
}

// DisableResistor removes resistor i from the network (an open-circuit EM
// failure). The resistor keeps its value for a later SetResistor restore.
func (c *Circuit) DisableResistor(i int) error {
	if i < 0 || i >= len(c.res) {
		return fmt.Errorf("spice: resistor index %d out of range", i)
	}
	if !c.res[i].disabled {
		c.ensureSlots() // snapshot the pre-edit state before mutating
		c.res[i].disabled = true
		c.editResistor(i, -c.res[i].cond)
	}
	return nil
}

// ResistorDisabled reports whether resistor i is currently open.
func (c *Circuit) ResistorDisabled(i int) bool { return c.res[i].disabled }

// ResetResistors restores every resistor — value and enabled state — to the
// snapshot taken when the solve pattern was compiled (for a circuit solved
// straight after Compile, the netlist values), together with the matching
// matrix values, RHS, cached factor, and preconditioner. It is the O(nnz)
// bulk alternative to replaying SetResistor calls and leaves the circuit in
// a canonical bit-reproducible state, which is what keeps parallel
// Monte-Carlo trials identical to serial ones. Before the first solve it is
// a no-op, since the current state is the snapshot state.
func (c *Circuit) ResetResistors() {
	if c.asm == nil {
		return
	}
	c.ensureSlots() // a reset signals re-solve activity; compile the machinery
	c.met.resets.Inc()
	a := c.asm
	// Generation zero means no resistor changed since compile, so a factor
	// the first solve built is already the pristine one.
	pristine := a.gen == 0 && a.schol != nil
	copy(c.res, a.res0)
	a.mat.SetValues(a.mat0)
	copy(a.rhs, a.rhs0)
	a.gen++
	if a.sparseDirect {
		a.pendingEdits = 0
		if a.schol0 != nil {
			// Pristine factor restored by memcpy — no refactorization.
			a.schol.Restore(a.schol0) //nolint:errcheck // clone shares the structure
			a.needRefactor = false
		} else if pristine || c.ensureSparseFactor() == nil {
			// First trial reset: the factor matches the pristine values —
			// untouched since the first solve, or just rebuilt from them — so
			// snapshot it for later resets instead of refactoring again.
			a.schol0 = a.schol.CloneFactor()
		} else {
			// Matrix values are pristine, so a factorization failure here
			// means the sparse path cannot work at all; fall back to CG.
			a.sparseDirect = false
		}
		return
	}
	if a.direct {
		if a.chol0 != nil {
			// Pristine factor restored by memcpy — no refactorization.
			a.chol.Set(a.chol0)
			a.needRefactor = false
		} else if err := c.ensureFactor(); err != nil {
			// Matrix values are pristine, so a factorization failure here
			// means the direct path cannot work at all; fall back to CG.
			a.direct = false
		} else {
			// First trial reset: mat holds pristine values, so the factor
			// just built is the pristine one — snapshot it for later resets.
			a.chol0 = a.chol.Clone()
		}
		return
	}
	if c.precond != nil {
		// Put the preconditioner into its canonical pristine-matrix state so
		// trial results do not depend on the refresh history of earlier
		// trials on this circuit.
		if rf, ok := c.precond.(solver.Refreshable); ok {
			if err := rf.Refresh(a.mat); err != nil {
				c.precond = solver.NewAutoPreconditioner(a.mat)
			}
		}
		c.precondGen = a.gen
		c.editsSinceRefresh = 0
		c.precondIters = -1
	}
}

// SetCurrents replaces the drive of every current source (amps in netlist
// order). A load change only moves the right-hand side — the conductance
// matrix and any cached factor are untouched — so re-tuning loads on a
// compiled circuit costs one O(n) restamp instead of a recompilation. The
// RHS is restamped rather than corrected by deltas, so it stays
// bit-identical to a fresh compile of the same values. The change
// re-baselines the circuit: ResetResistors keeps the new loads (current
// sources are not part of the resistor-failure snapshot).
func (c *Circuit) SetCurrents(amps []float64) error {
	if len(amps) != len(c.cur) {
		return fmt.Errorf("spice: %d load currents for %d current sources", len(amps), len(c.cur))
	}
	for i := range c.cur {
		c.cur[i].amps = amps[i]
	}
	if a := c.asm; a != nil {
		c.stampRHS(a.rhs, c.res)
		if a.rhs0 != nil {
			c.stampRHS(a.rhs0, a.res0)
		}
	}
	return nil
}

// NumCurrents returns the current-source count (compile order = netlist
// order).
func (c *Circuit) NumCurrents() int { return len(c.cur) }

// Clone returns an independent circuit that shares every immutable
// compile-time artifact with the receiver — node tables, sparsity pattern,
// per-resistor slot map, pristine snapshots, and the symbolic structure of
// the sparse factor — while copying all mutable numeric state (matrix
// values, RHS, resistor table, factor values). A clone solves and edits
// independently of its source and produces bit-identical results from the
// same state, which is what lets mc.RunParallel hand each worker a clone
// instead of recompiling and refactoring per worker. Cloning only reads the
// receiver, so concurrent clones of one master are safe; cloning and
// mutating the same circuit concurrently is not.
func (c *Circuit) Clone() *Circuit {
	d := &Circuit{
		Tol:            c.Tol,
		DirectMaxNodes: c.DirectMaxNodes,
		Solver:         c.Solver,
		names:          c.names,
		index:          c.index,
		fixed:          c.fixed,
		freeIdx:        c.freeIdx,
		nFree:          c.nFree,
		res:            append([]cResistor(nil), c.res...),
		cur:            append([]cCurrent(nil), c.cur...),
		gmin:           c.gmin,
		met:            c.met,
	}
	a := c.asm
	if a == nil {
		return d
	}
	b := &assembly{
		mat:          a.mat.ShallowCloneValues(),
		rhs:          append([]float64(nil), a.rhs...),
		slots:        a.slots, // read-only once built
		gen:          a.gen,
		mat0:         a.mat0, // pristine snapshots are write-once
		res0:         a.res0,
		direct:       a.direct,
		sparseDirect: a.sparseDirect,
		needRefactor: a.needRefactor,
		pendingEdits: a.pendingEdits,
	}
	if a.rhs0 != nil {
		// rhs0 is the one snapshot that can move after it is taken
		// (SetCurrents re-baselines loads), so the clone owns a copy.
		b.rhs0 = append([]float64(nil), a.rhs0...)
	}
	if a.chol != nil {
		b.chol = a.chol.Clone()
	}
	if a.chol0 != nil {
		b.chol0 = a.chol0.Clone()
	}
	if a.schol != nil {
		b.schol = a.schol.CloneFactor()
	}
	if a.schol0 != nil {
		b.schol0 = a.schol0.CloneFactor()
	}
	if a.direct {
		b.w = make([]float64, c.nFree)
	}
	b.work.Reserve(c.nFree)
	b.x0 = make([]float64, c.nFree)
	d.asm = b
	return d
}

// OP is a DC operating point.
type OP struct {
	c     *Circuit
	volts []float64 // per node (pads hold their pinned values)
	stats solver.Stats
}

// NewOP returns an empty operating point sized for this circuit, for use as
// a reusable SolveDCInto destination.
func (c *Circuit) NewOP() *OP {
	return &OP{c: c, volts: make([]float64, len(c.names))}
}

// SolveDC computes the operating point into a fresh OP. prev, when non-nil,
// warm-starts the iterative solve from an earlier operating point of the
// same circuit — after a single failure the solution moves little, so this
// typically cuts iterations substantially.
func (c *Circuit) SolveDC(prev *OP) (*OP, error) {
	op := &OP{}
	if err := c.SolveDCInto(op, prev); err != nil {
		return nil, err
	}
	return op, nil
}

// SolveDCInto computes the operating point into dst, reusing its buffers.
// Together with the compiled fixed-pattern assembly this makes repeated
// re-solves after resistor edits allocation-free. prev, when non-nil,
// warm-starts the iterative path and must not be dst itself.
func (c *Circuit) SolveDCInto(dst, prev *OP) error {
	if dst == nil {
		return fmt.Errorf("spice: SolveDCInto needs a destination OP")
	}
	if dst == prev {
		return fmt.Errorf("spice: SolveDCInto destination must differ from the warm-start OP")
	}
	dst.c = c
	if len(dst.volts) != len(c.names) {
		dst.volts = make([]float64, len(c.names))
	}
	dst.stats = solver.Stats{}
	if c.nFree == 0 {
		// Everything pinned: trivial.
		copy(dst.volts, c.fixed)
		return nil
	}
	if c.asm == nil {
		c.compile()
	}
	a := c.asm
	n := c.nFree

	// The sparse direct path engages eagerly: above the dense ceiling the
	// AMD-ordered factorization beats even a single cold CG solve, and its
	// cost is amortized across every re-solve that follows.
	if a.sparseDirect {
		if a.schol == nil || a.needRefactor {
			if err := c.ensureSparseFactor(); err != nil {
				// The sparse factorization failed; fall back to CG permanently.
				a.sparseDirect = false
			}
		}
		if a.sparseDirect {
			a.work.Reserve(n)
			if err := a.schol.SolveInto(a.work.X, a.rhs); err != nil {
				return fmt.Errorf("spice: DC solve: %w", err)
			}
			a.pendingEdits = 0
			c.met.sparseSolves.Inc()
			c.scatter(dst, a.work.X)
			return nil
		}
	}

	// The dense direct path engages only once there is re-solve activity (an
	// edit or a reset): a one-shot cold solve stays on CG and never pays the
	// O(n³) factorization.
	useDirect := a.direct && (a.chol != nil || a.gen > 0)
	if useDirect && (a.chol == nil || a.needRefactor) {
		if err := c.ensureFactor(); err != nil {
			// The dense factorization failed; fall back to CG permanently.
			a.direct = false
			useDirect = false
		}
	}
	if useDirect {
		a.work.Reserve(n)
		if err := a.chol.SolveInto(a.work.X, a.rhs); err != nil {
			return fmt.Errorf("spice: DC solve: %w", err)
		}
		c.met.directSolves.Inc()
		c.scatter(dst, a.work.X)
		return nil
	}

	var x0 []float64
	if prev != nil && prev.c == c {
		x0 = a.x0
		for i := range c.names {
			if fi := c.freeIdx[i]; fi >= 0 {
				x0[fi] = prev.volts[i]
			}
		}
	}
	tol := c.Tol
	if tol == 0 {
		tol = defaultTol
	}
	if c.precond == nil {
		c.precond = solver.NewAutoPreconditioner(a.mat)
		c.precondIters = -1
		c.precondGen = a.gen
		c.editsSinceRefresh = 0
	}
	// Staleness policy: the generation counter tells how far the
	// preconditioner lags the matrix. Within the edit budget the stale
	// factor is reused deliberately; past it, refresh in place.
	if c.precondGen != a.gen && c.editsSinceRefresh >= precondRefreshEdits {
		c.refreshPrecond()
	}
	x, st, err := solver.CG(a.mat, a.rhs, solver.Options{Tol: tol, M: c.precond, X0: x0, Work: &a.work})
	if err != nil {
		// The preconditioner may be broken (e.g. a failed in-place refresh);
		// rebuild from scratch once and retry before giving up.
		c.precond = solver.NewAutoPreconditioner(a.mat)
		c.precondIters = -1
		c.precondGen = a.gen
		c.editsSinceRefresh = 0
		x, st, err = solver.CG(a.mat, a.rhs, solver.Options{Tol: tol, M: c.precond, X0: x0, Work: &a.work})
		if err != nil {
			return fmt.Errorf("spice: DC solve: %w", err)
		}
	}
	if c.precondIters < 0 {
		c.precondIters = st.Iterations
	} else if st.Iterations > 8*(c.precondIters+4) {
		// Convergence drifted well past the fresh-factor baseline even
		// inside the edit budget: refresh now so the next solve recovers.
		c.refreshPrecond()
	}
	c.met.cgSolves.Inc()
	dst.stats = st
	c.scatter(dst, x)
	return nil
}

// ensureFactor builds (or rebuilds, after a downdate breakdown) the cached
// dense factor from the current matrix values.
func (c *Circuit) ensureFactor() error {
	a := c.asm
	if a.chol == nil {
		chol, err := solver.NewDenseCholeskyFromCSR(a.mat)
		if err != nil {
			return err
		}
		a.chol = chol
	} else if err := a.chol.RefactorFromCSR(a.mat); err != nil {
		return err
	}
	a.needRefactor = false
	return nil
}

// ensureSparseFactor builds (or refactors, after a downdate breakdown) the
// cached sparse factor from the current matrix values. The first build picks
// the backend by size — scalar up-looking below supernodalMinNodes free
// nodes, blocked supernodal above with nested-dissection ordering and the
// process solver pool — and pays the ordering plus symbolic analysis;
// refactorizations reuse the static structure and allocate nothing.
func (c *Circuit) ensureSparseFactor() error {
	a := c.asm
	done := trace.Default().Span("spice.sparse.factor")
	defer done()
	t0 := c.met.factorSeconds.Start()
	if a.schol == nil {
		var schol solver.SparseFactor
		var err error
		if c.nFree >= supernodalMinNodes {
			schol, err = solver.NewSupernodalCholeskyFromCSR(a.mat, par.Shared(SolverWorkers()))
		} else {
			schol, err = solver.NewSparseCholeskyFromCSR(a.mat)
		}
		if err != nil {
			return err
		}
		a.schol = schol
	} else if err := a.schol.RefactorFromCSR(a.mat); err != nil {
		return err
	}
	c.met.factorSeconds.ObserveSince(t0)
	a.needRefactor = false
	a.pendingEdits = 0
	return nil
}

// refreshPrecond brings the cached preconditioner up to date with the
// current matrix, in place when it supports that, and resets the staleness
// accounting and the iteration baseline.
func (c *Circuit) refreshPrecond() {
	c.met.refreshes.Inc()
	a := c.asm
	if rf, ok := c.precond.(solver.Refreshable); ok {
		if err := rf.Refresh(a.mat); err != nil {
			c.precond = solver.NewAutoPreconditioner(a.mat)
		}
	}
	c.precondGen = a.gen
	c.editsSinceRefresh = 0
	c.precondIters = -1
}

// scatter expands the free-node solution x into per-node voltages.
func (c *Circuit) scatter(op *OP, x []float64) {
	for i := range c.names {
		if fi := c.freeIdx[i]; fi >= 0 {
			op.volts[i] = x[fi]
		} else {
			op.volts[i] = c.fixed[i]
		}
	}
}

// NumFree returns the free (unpinned) node count — the dimension of the
// compiled linear system.
func (c *Circuit) NumFree() int { return c.nFree }

// ResistorTerms returns the free equation indices of resistor i's terminals
// (-1 when a terminal is a pad or ground) and the pinned voltage of each
// non-free terminal (0 for ground or for a free terminal). Batch trial
// preparation uses it to build the rank-one edit vector of a failure without
// reaching into the compiled slot map.
func (c *Circuit) ResistorTerms(i int) (fa, fb int, va, vb float64) {
	r := c.res[i]
	fa, fb = c.freeTerm(r.a), c.freeTerm(r.b)
	if r.a >= 0 && fa < 0 {
		va = c.fixed[r.a]
	}
	if r.b >= 0 && fb < 0 {
		vb = c.fixed[r.b]
	}
	return fa, fb, va, vb
}

// ResistorConductance returns the effective conductance of resistor i: its
// stamped value, or 0 while disabled.
func (c *Circuit) ResistorConductance(i int) float64 {
	if c.res[i].disabled {
		return 0
	}
	return c.res[i].cond
}

// ResistorNodes returns the node indices of resistor i's terminals, −1 for
// a ground terminal. Unlike ResistorTerms these are full node indices (pads
// included), which is what graph-level consumers like the steady-state
// screen need to map branches onto solved node voltages.
func (c *Circuit) ResistorNodes(i int) (a, b int) {
	r := c.res[i]
	return r.a, r.b
}

// SolveFreeBatch solves the compiled free-node system for nrhs stacked
// right-hand sides (vector v occupies b[v·n:(v+1)·n], likewise x) against the
// current cached sparse factor, bit-identical to nrhs separate solves. It is
// only available on the sparse direct path — the batched triangular sweeps
// are how Monte-Carlo trial groups amortize factor traffic — and builds the
// factor on first use like SolveDCInto would.
func (c *Circuit) SolveFreeBatch(x, b []float64, nrhs int) error {
	if c.asm == nil {
		c.compile()
	}
	a := c.asm
	if !a.sparseDirect {
		return fmt.Errorf("spice: SolveFreeBatch needs the sparse direct path (backend is %s)", c.SolverBackend())
	}
	if a.schol == nil || a.needRefactor {
		if err := c.ensureSparseFactor(); err != nil {
			a.sparseDirect = false
			return fmt.Errorf("spice: SolveFreeBatch factorization: %w", err)
		}
	}
	return a.schol.SolveBatchInto(x, b, nrhs)
}

// ScatterFree expands a free-node solution x (length NumFree) into the
// per-node voltages of op, exactly as an internal solve would. op is bound to
// this circuit and its iterative-solver stats are cleared: the caller is
// asserting x is an exact solve of the current system.
func (c *Circuit) ScatterFree(op *OP, x []float64) error {
	if op == nil {
		return fmt.Errorf("spice: ScatterFree needs a destination OP")
	}
	if len(x) != c.nFree {
		return fmt.Errorf("spice: ScatterFree got %d values, want %d", len(x), c.nFree)
	}
	op.c = c
	if len(op.volts) != len(c.names) {
		op.volts = make([]float64, len(c.names))
	}
	op.stats = solver.Stats{}
	c.scatter(op, x)
	return nil
}

// GatherFree collects the free-node voltages of op into x (length NumFree) —
// the inverse of ScatterFree, used to seed batch preparation with the cached
// pristine solution instead of re-solving for it.
func (c *Circuit) GatherFree(x []float64, op *OP) error {
	if op == nil || op.c != c {
		return fmt.Errorf("spice: GatherFree needs an OP of this circuit")
	}
	if len(x) != c.nFree {
		return fmt.Errorf("spice: GatherFree got %d slots, want %d", len(x), c.nFree)
	}
	for i := range c.names {
		if fi := c.freeIdx[i]; fi >= 0 {
			x[fi] = op.volts[i]
		}
	}
	return nil
}

// CloneFor returns a copy of the operating point bound to clone, which must
// be a Clone of the circuit that produced it (same node table). Rebinding
// matters for warm starts: SolveDCInto only uses prev when it belongs to the
// same circuit, so a cloned system must carry cloned operating points.
func (op *OP) CloneFor(clone *Circuit) *OP {
	return &OP{c: clone, volts: append([]float64(nil), op.volts...), stats: op.stats}
}

// Voltage returns the voltage of a named node.
func (op *OP) Voltage(name string) (float64, error) {
	i, ok := op.c.index[name]
	if !ok {
		return 0, fmt.Errorf("spice: unknown node %q", name)
	}
	return op.volts[i], nil
}

// VoltageAt returns the voltage of node i.
func (op *OP) VoltageAt(i int) float64 { return op.volts[i] }

// Stats reports the iterative-solver statistics of the solve (zero for the
// direct dense path, which is exact).
func (op *OP) Stats() solver.Stats { return op.stats }

// ResistorCurrent returns the current (A) through resistor i, positive from
// terminal A to terminal B; zero when disabled.
func (op *OP) ResistorCurrent(i int) float64 {
	r := op.c.res[i]
	if r.disabled {
		return 0
	}
	var va, vb float64
	if r.a >= 0 {
		va = op.volts[r.a]
	}
	if r.b >= 0 {
		vb = op.volts[r.b]
	}
	return (va - vb) * r.cond
}

// ResistorCurrentsInto extracts the current through every resistor of the
// solved operating point in one pass (dst length NumResistors, same sign
// convention as ResistorCurrent: positive from terminal A to B, zero while
// disabled). This is the branch-current extraction the steady-state screen
// runs over the pristine solve — one bulk sweep instead of NumResistors
// bound-checked calls.
func (op *OP) ResistorCurrentsInto(dst []float64) error {
	if len(dst) != len(op.c.res) {
		return fmt.Errorf("spice: ResistorCurrentsInto got %d slots for %d resistors", len(dst), len(op.c.res))
	}
	for i, r := range op.c.res {
		if r.disabled {
			dst[i] = 0
			continue
		}
		var va, vb float64
		if r.a >= 0 {
			va = op.volts[r.a]
		}
		if r.b >= 0 {
			vb = op.volts[r.b]
		}
		dst[i] = (va - vb) * r.cond
	}
	return nil
}

// MinVoltage returns the lowest node voltage and its node index, the
// worst-case IR-drop point of a Vdd grid.
func (op *OP) MinVoltage() (volts float64, node int) {
	volts = math.Inf(1)
	node = -1
	for i, v := range op.volts {
		if v < volts {
			volts = v
			node = i
		}
	}
	return volts, node
}

// WorstIRDropFrac returns the worst IR drop as a fraction of vdd.
func (op *OP) WorstIRDropFrac(vdd float64) float64 {
	v, _ := op.MinVoltage()
	return (vdd - v) / vdd
}
