package spice

import (
	"fmt"
	"math"

	"emvia/internal/par"
	"emvia/internal/solver"
	"emvia/internal/sparse"
	"emvia/internal/trace"
)

// sparseUpdateBudget caps how many rank-one factor updates may accumulate
// between solves. A failure cascade edits one resistor per solve and never
// comes near it; a bulk value push (load re-tuning rescales every wire) would
// cost thousands of etree-path updates, where a single refactorization over
// the static structure is far cheaper — so past the budget the factor is just
// marked stale and the next solve refactors once.
const sparseUpdateBudget = 32

// Circuit is a compiled netlist ready for repeated DC solves with mutable
// resistor values — the operation the EM failure simulation performs after
// every via-array failure. The first solve compiles a fixed-pattern linear
// system (the gmin leak puts every free node on the diagonal and disabled
// resistors stay in the pattern) and factors it once with the supernodal
// sparse Cholesky; after that every resistor edit is an in-place O(4) value
// update plus a rank-one factor update, and every re-solve is two triangular
// sweeps that reuse all buffers.
type Circuit struct {
	names []string
	index map[string]int

	fixed   []float64 // pad voltage per node; NaN when the node is free
	freeIdx []int     // equation index per node, -1 for pads
	nFree   int

	res []cResistor
	cur []cCurrent

	gmin float64

	asm *assembly // compiled fixed-pattern system; nil until the first solve

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

	// The sparse direct factor: a fill-reducing-ordered supernodal Cholesky
	// factor maintained by Davis–Hager edge up/downdates; factor0 is the
	// pristine factor restored at trial reset by memcpy. The first solve
	// builds it, and its cost is amortized across every re-solve that
	// follows. needRefactor marks it stale (a downdate broke down, the edit
	// budget ran out, or a factorization failed), so the next solve refactors
	// from the always-correct matrix values first.
	factor       *solver.SupernodalCholesky
	factor0      *solver.SupernodalCholesky
	needRefactor bool
	pendingEdits int       // factor updates since the last solve (sparseUpdateBudget)
	x            []float64 // free-node solve scratch
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
		if !validOhms(r.Ohms) {
			return nil, fmt.Errorf("spice: %w", ohmsError(r.Name, r.Ohms))
		}
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

// validOhms reports whether the conductance stamp can represent a
// resistance: it must be finite and positive (NaN fails both comparisons).
func validOhms(ohms float64) bool { return ohms > 0 && ohms <= math.MaxFloat64 }

// ohmsError names a resistor whose value validOhms rejects.
func ohmsError(name string, ohms float64) error {
	return fmt.Errorf("resistor %s has resistance %g Ω, want finite and positive", name, ohms)
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
// zero before the first solve. Callers use it to tell whether a circuit still
// holds its compiled values.
func (c *Circuit) Generation() uint64 {
	if c.asm == nil {
		return 0
	}
	return c.asm.gen
}

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
	c.asm = &assembly{mat: tr.ToCSR(), rhs: rhs, x: make([]float64, n)}
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
// the compiled system and its cached factor. Before the first solve there is
// nothing compiled and the change is simply recorded in the resistor table.
func (c *Circuit) editResistor(i int, dg float64) {
	if dg == 0 || c.asm == nil {
		return
	}
	a := c.asm
	a.gen++
	sl := a.slots[i]
	c.applyDelta(sl, dg)
	c.met.slotEdits.Inc()
	if a.factor == nil || a.needRefactor {
		return
	}
	a.pendingEdits++
	if a.pendingEdits > sparseUpdateBudget {
		// A bulk edit burst: one refactorization at the next solve beats
		// continuing to chase it with rank-one updates.
		a.needRefactor = true
		return
	}
	// The edit is rank-one along a structural edge of A — ΔA = dg·u·uᵀ with
	// u = e_fa − e_fb, pad and ground terminals dropped — so the factor
	// absorbs it along the elimination-tree path: O(path × column nnz)
	// instead of a refactorization.
	s := math.Sqrt(math.Abs(dg))
	if dg > 0 {
		a.factor.UpdateEdge(sl.fa, sl.fb, s)
	} else if err := a.factor.DowndateEdge(sl.fa, sl.fb, s); err != nil {
		// Cancellation broke the downdate; the CSR values are always
		// correct, so refactor from them at the next solve.
		a.needRefactor = true
	}
}

// SetResistor replaces the value of resistor i (netlist order), re-enabling
// it if it was disabled.
func (c *Circuit) SetResistor(i int, ohms float64) error {
	if i < 0 || i >= len(c.res) {
		return fmt.Errorf("spice: resistor index %d out of range", i)
	}
	if !validOhms(ohms) {
		return fmt.Errorf("spice: %w", ohmsError(c.res[i].name, ohms))
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
// matrix values, RHS and cached factor. It is the O(nnz) bulk alternative to
// replaying SetResistor calls and leaves the circuit in a canonical
// bit-reproducible state, which is what keeps parallel Monte-Carlo trials
// identical to serial ones. Before the first solve it is a no-op, since the
// current state is the snapshot state.
func (c *Circuit) ResetResistors() {
	if c.asm == nil {
		return
	}
	c.ensureSlots() // a reset signals re-solve activity; compile the machinery
	c.met.resets.Inc()
	a := c.asm
	// Generation zero means no resistor changed since compile, so a factor
	// the first solve built is already the pristine one.
	pristine := a.gen == 0 && a.factor != nil && !a.needRefactor
	copy(c.res, a.res0)
	a.mat.SetValues(a.mat0)
	copy(a.rhs, a.rhs0)
	a.gen++
	a.pendingEdits = 0
	switch {
	case a.factor0 != nil:
		// Pristine factor restored by memcpy — no refactorization.
		a.factor.Set(a.factor0) //nolint:errcheck // clone shares the structure
		a.needRefactor = false
	case pristine || c.ensureFactor() == nil:
		// First trial reset: the factor matches the pristine values —
		// untouched since the first solve, or just rebuilt from them — so
		// snapshot it for later resets instead of refactoring again.
		a.factor0 = a.factor.Clone()
	}
	// Otherwise the pristine matrix did not factor: ensureFactor left the
	// factor marked stale, so the next solve retries and reports the error.
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
// per-resistor slot map, pristine snapshots (the pristine factor included)
// and the symbolic structure of the sparse factor — while copying all
// mutable numeric state (matrix values, RHS, resistor table, factor values).
// A clone solves and edits independently of its source and produces
// bit-identical results from the same state, which is what lets
// mc.RunParallel hand each worker a clone instead of recompiling and
// refactoring per worker. Cloning only reads the receiver, so concurrent
// clones of one master are safe; cloning and mutating the same circuit
// concurrently is not.
func (c *Circuit) Clone() *Circuit {
	d := &Circuit{
		names:   c.names,
		index:   c.index,
		fixed:   c.fixed,
		freeIdx: c.freeIdx,
		nFree:   c.nFree,
		res:     append([]cResistor(nil), c.res...),
		cur:     append([]cCurrent(nil), c.cur...),
		gmin:    c.gmin,
		met:     c.met,
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
		factor0:      a.factor0,
		needRefactor: a.needRefactor,
		pendingEdits: a.pendingEdits,
		x:            make([]float64, c.nFree),
	}
	if a.rhs0 != nil {
		// rhs0 is the one snapshot that can move after it is taken
		// (SetCurrents re-baselines loads), so the clone owns a copy.
		b.rhs0 = append([]float64(nil), a.rhs0...)
	}
	if a.factor != nil {
		b.factor = a.factor.Clone()
	}
	d.asm = b
	return d
}

// OP is a DC operating point.
type OP struct {
	c     *Circuit
	volts []float64 // per node (pads hold their pinned values)
}

// NewOP returns an empty operating point sized for this circuit, for use as
// a reusable SolveDCInto destination.
func (c *Circuit) NewOP() *OP {
	return &OP{c: c, volts: make([]float64, len(c.names))}
}

// SolveDC computes the operating point into a fresh OP.
func (c *Circuit) SolveDC() (*OP, error) {
	op := &OP{}
	if err := c.SolveDCInto(op); err != nil {
		return nil, err
	}
	return op, nil
}

// SolveDCInto computes the operating point into dst, reusing its buffers.
// Together with the compiled fixed-pattern assembly this makes repeated
// re-solves after resistor edits allocation-free. A factorization failure
// is returned as an error wrapping solver.ErrNotSPD.
func (c *Circuit) SolveDCInto(dst *OP) error {
	if dst == nil {
		return fmt.Errorf("spice: SolveDCInto needs a destination OP")
	}
	dst.c = c
	if len(dst.volts) != len(c.names) {
		dst.volts = make([]float64, len(c.names))
	}
	if c.nFree == 0 {
		// Everything pinned: trivial.
		copy(dst.volts, c.fixed)
		return nil
	}
	if err := c.ready(); err != nil {
		return fmt.Errorf("spice: DC solve: %w", err)
	}
	a := c.asm
	if err := a.factor.SolveInto(a.x, a.rhs); err != nil {
		return fmt.Errorf("spice: DC solve: %w", err)
	}
	a.pendingEdits = 0
	c.met.solves.Inc()
	c.scatter(dst, a.x)
	return nil
}

// ready compiles the system on first use and brings the factor up to date
// with the matrix values: the first call pays the ordering, symbolic
// analysis and numeric factorization, later ones refactor only after a
// downdate breakdown, an edit burst past the update budget, or a failed
// factorization.
func (c *Circuit) ready() error {
	if c.asm == nil {
		c.compile()
	}
	if c.asm.factor == nil || c.asm.needRefactor {
		return c.ensureFactor()
	}
	return nil
}

// ensureFactor builds (or refactors) the cached factor from the current
// matrix values. The first build orders the system — AMD below
// solver.NDMinNodes free nodes, nested dissection above — and factors it on
// the process solver pool; refactorizations reuse the static structure and
// allocate nothing. On failure the factor stays marked stale.
func (c *Circuit) ensureFactor() error {
	a := c.asm
	done := trace.Default().Span("spice.sparse.factor")
	defer done()
	t0 := c.met.factorSeconds.Start()
	a.needRefactor = true
	if a.factor == nil {
		f, err := solver.NewSupernodalCholeskyFromCSR(a.mat, par.Shared(SolverWorkers()))
		if err != nil {
			return err
		}
		a.factor = f
	} else if err := a.factor.RefactorFromCSR(a.mat); err != nil {
		return err
	}
	c.met.factorSeconds.ObserveSince(t0)
	a.needRefactor = false
	a.pendingEdits = 0
	return nil
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
// non-free terminal (0 for ground or for a free terminal). Failure cascades
// use it to build the rank-one edit vector of a failure without reaching
// into the compiled slot map.
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
// current cached factor, bit-identical to nrhs separate solves, with the
// caller's solve scratch ws. It builds the factor on first use like
// SolveDCInto would; once the factor is current it only reads the circuit,
// so goroutines that each own a workspace may solve against one solved
// circuit concurrently — how Monte-Carlo workers share one pristine grid.
func (c *Circuit) SolveFreeBatch(ws *solver.Workspace, x, b []float64, nrhs int) error {
	if c.nFree == 0 {
		return nil
	}
	if err := c.ready(); err != nil {
		return fmt.Errorf("spice: SolveFreeBatch: %w", err)
	}
	return c.asm.factor.SolveWith(ws, x, b, nrhs)
}

// FactorNNZ returns the entry count of the cached factor's L, 0 before the
// first solve.
func (c *Circuit) FactorNNZ() int {
	if c.asm == nil || c.asm.factor == nil {
		return 0
	}
	return c.asm.factor.NNZ()
}

// Gmin returns the leak conductance that ties every free node to ground.
func (c *Circuit) Gmin() float64 { return c.gmin }

// ScatterFree expands a free-node solution x (length NumFree) into the
// per-node voltages of op, exactly as an internal solve would, and binds op
// to this circuit.
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
	c.scatter(op, x)
	return nil
}

// GatherFree collects the free-node voltages of op into x (length NumFree) —
// the inverse of ScatterFree, used to seed failure cascades with the cached
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
