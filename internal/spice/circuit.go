package spice

import (
	"fmt"
	"math"

	"emvia/internal/solver"
	"emvia/internal/sparse"
	"emvia/internal/trace"
)

// Circuit is a compiled netlist ready for DC solves — the operation the EM
// failure simulation performs after every via-array failure. The first solve
// compiles a fixed-pattern linear system (the gmin leak puts every free node
// on the diagonal) and factors it once with the supernodal sparse Cholesky;
// every later solve is two triangular sweeps that reuse all buffers.
//
// A compiled circuit is read-only: no method changes its values; the first
// solve only builds the system and factor it keeps. A value change makes a
// new circuit that shares what it can with the old one — WithCurrents
// restamps only the right-hand side and shares the factor, WithResistances
// and Open refactor a private numeric copy of the factor on the same
// symbolic structure.
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
	name string
	a, b int     // node indices, -1 = ground
	cond float64 // 0 once Open has opened the resistor
}

type cCurrent struct {
	a, b int
	amps float64
}

// assembly is the compiled fixed-pattern linear system of a circuit and its
// sparse direct factor: a fill-reducing-ordered supernodal Cholesky factor,
// built by the first solve and only read after that. Circuits derived by
// WithCurrents share the matrix and the factor; each assembly owns its RHS
// and solve scratch.
type assembly struct {
	mat    *sparse.CSR
	rhs    []float64
	factor *solver.SupernodalCholesky // nil until built
	x      []float64                  // free-node solve scratch
	ws     solver.Workspace
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
	for _, r := range nl.Resistors {
		if !validOhms(r.Ohms) {
			return nil, fmt.Errorf("spice: %w", ohmsError(r.Name, r.Ohms))
		}
		c.res = append(c.res, cResistor{name: r.Name, a: nodeOf(r.A), b: nodeOf(r.B), cond: 1 / r.Ohms})
	}
	for _, s := range nl.Currents {
		c.cur = append(c.cur, cCurrent{a: nodeOf(s.A), b: nodeOf(s.B), amps: s.Amps})
	}
	c.gmin = gminOf(c.res)
	return c, nil
}

// gminOf returns the leak conductance of resistor table res. A vanishing
// leak to ground keeps the system nonsingular when failures island part of
// the grid; islanded nodes then drift to 0 V, which correctly registers as a
// catastrophic IR-drop violation.
func gminOf(res []cResistor) float64 {
	maxCond := 0.0
	for _, r := range res {
		maxCond = max(maxCond, r.cond)
	}
	if maxCond == 0 {
		maxCond = 1
	}
	return 1e-12 * maxCond
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

// freeTerm maps a node index (-1 = ground) to its free equation index.
func (c *Circuit) freeTerm(node int) int {
	if node < 0 {
		return -1
	}
	return c.freeIdx[node]
}

// compile builds the fixed sparsity pattern with its numeric content stamped
// directly. Called lazily by the first solve, so a circuit that is never
// solved costs no assembly.
func (c *Circuit) compile() {
	c.met = newCircuitMetrics()
	c.asm = c.assemble(c.res)
}

// assemble stamps the circuit's free-node matrix and right-hand side.
// pattern is the resistor table whose sparsity pattern the matrix keeps: the
// circuit's own, or that of the circuit it was opened from. A resistor the
// circuit has opened (conductance 0) is stamped at its pattern value and
// cancelled before anything else lands in its slots, so its entries sum to
// exactly zero and keep their slots. compile, WithResistances and Open all
// stamp through here, so the circuits derived from one compile share its
// pattern and can refactor on its symbolic structure.
func (c *Circuit) assemble(pattern []cResistor) *assembly {
	n := c.nFree
	tr := sparse.NewTriplet(n, n, len(c.res)*4+n)
	for i, r := range c.res {
		if g := pattern[i].cond; r.cond == 0 {
			c.stampResistor(tr, r, g)
			c.stampResistor(tr, r, -g)
		}
	}
	for i := range c.names {
		if fi := c.freeIdx[i]; fi >= 0 {
			tr.Add(fi, fi, c.gmin) // gmin leak anchors every free diagonal
		}
	}
	for _, r := range c.res {
		c.stampResistor(tr, r, r.cond) // adding an opened resistor's 0 is a no-op
	}
	a := &assembly{mat: tr.ToCSR(), rhs: make([]float64, n), x: make([]float64, n)}
	c.stampRHS(a.rhs)
	return a
}

// stampResistor adds conductance g between the free terminals of r.
func (c *Circuit) stampResistor(tr *sparse.Triplet, r cResistor, g float64) {
	fa, fb := c.freeTerm(r.a), c.freeTerm(r.b)
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
}

// stampRHS writes the right-hand side of the circuit into rhs: pad terms in
// resistor order, then sources. Every circuit stamps through it, so a
// restamped RHS is bit-identical to the one a fresh compile of the same
// values would build.
func (c *Circuit) stampRHS(rhs []float64) {
	for i := range rhs {
		rhs[i] = 0
	}
	for _, r := range c.res {
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

// WithCurrents returns the circuit driven by new current-source values (amps
// in netlist order). A load change only moves the right-hand side, so the
// result shares the receiver's matrix and factor and stamps its own RHS —
// bit-identical to a fresh compile of the same values — and its solves cost
// two triangular sweeps.
func (c *Circuit) WithCurrents(amps []float64) (*Circuit, error) {
	if len(amps) != len(c.cur) {
		return nil, fmt.Errorf("spice: %d load currents for %d current sources", len(amps), len(c.cur))
	}
	d := *c
	d.cur = make([]cCurrent, len(c.cur))
	for i, s := range c.cur {
		s.amps = amps[i]
		d.cur[i] = s
	}
	if a := c.asm; a != nil {
		d.asm = &assembly{mat: a.mat, factor: a.factor, rhs: make([]float64, c.nFree), x: make([]float64, c.nFree)}
		d.stampRHS(d.asm.rhs)
	}
	return &d, nil
}

// WithResistances returns the circuit with new resistor values (ohms in
// netlist order). It stamps the new values through compile's code and, once
// the receiver has a factor, refactors a private numeric copy of it on the
// same ordering and symbolic structure — bit-identical to a fresh compile of
// the same values, without repeating its ordering and symbolic analysis.
func (c *Circuit) WithResistances(ohms []float64) (*Circuit, error) {
	if len(ohms) != len(c.res) {
		return nil, fmt.Errorf("spice: %d resistances for %d resistors", len(ohms), len(c.res))
	}
	d := *c
	d.res = make([]cResistor, len(c.res))
	for i, r := range c.res {
		if !validOhms(ohms[i]) {
			return nil, fmt.Errorf("spice: %w", ohmsError(r.name, ohms[i]))
		}
		r.cond = 1 / ohms[i]
		d.res[i] = r
	}
	d.gmin = gminOf(d.res)
	d.asm = nil
	if c.asm == nil || c.asm.factor == nil {
		return &d, nil // nothing to share: the first solve compiles afresh
	}
	d.asm = d.assemble(d.res)
	if err := d.factorFrom(c); err != nil {
		return nil, err
	}
	return &d, nil
}

// Open returns the circuit with resistors ris (netlist indices) open —
// removed from the network, as an EM failure removes a via array. The result
// keeps the receiver's sparsity pattern (see assemble), so it refactors a
// private numeric copy of the receiver's factor on the same symbolic
// structure; it keeps the receiver's gmin leak, and an opened resistor
// carries no current. Open factors the receiver first if it has not been
// solved.
func (c *Circuit) Open(ris []int) (*Circuit, error) {
	if c.nFree > 0 {
		if err := c.ready(); err != nil {
			return nil, fmt.Errorf("spice: Open: %w", err)
		}
	}
	d := *c
	d.res = append([]cResistor(nil), c.res...)
	for _, i := range ris {
		if i < 0 || i >= len(c.res) {
			return nil, fmt.Errorf("spice: resistor index %d out of range", i)
		}
		d.res[i].cond = 0
	}
	if c.nFree == 0 {
		return &d, nil
	}
	d.asm = d.assemble(c.res)
	if err := d.factorFrom(c); err != nil {
		return nil, err
	}
	return &d, nil
}

// factorFrom builds the factor of c, whose matrix was just stamped from
// values derived from src: by refactoring a private copy of src's factor
// when c's pattern is src's, else (src was itself opened where c conducts)
// by a factorization of its own.
func (c *Circuit) factorFrom(src *Circuit) error {
	if c.asm.mat.NNZ() == src.asm.mat.NNZ() {
		c.asm.factor = src.asm.factor.Clone()
	}
	return c.ensureFactor()
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

// SolveDCInto computes the operating point into dst, reusing its buffers, so
// repeated solves are allocation-free. A factorization failure is returned
// as an error wrapping solver.ErrNotSPD.
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
	if err := a.factor.SolveWith(&a.ws, a.x, a.rhs, 1); err != nil {
		return fmt.Errorf("spice: DC solve: %w", err)
	}
	c.met.solves.Inc()
	c.scatter(dst, a.x)
	return nil
}

// ready compiles the system and builds its factor on first use: the
// ordering, symbolic analysis and numeric factorization. A failed
// factorization leaves no factor, so the next solve retries and reports it.
func (c *Circuit) ready() error {
	if c.asm == nil {
		c.compile()
	}
	if c.asm.factor == nil {
		return c.ensureFactor()
	}
	return nil
}

// ensureFactor factors the matrix values: from scratch — AMD-ordering the
// system and factoring it — or, when the assembly already holds a private
// factor copy of the same structure, by a numeric refactor.
// On failure the assembly is left without a factor.
func (c *Circuit) ensureFactor() error {
	a := c.asm
	done := trace.Default().Span("spice.sparse.factor")
	defer done()
	t0 := c.met.factorSeconds.Start()
	if a.factor == nil {
		f, err := solver.NewSupernodalCholeskyFromCSR(a.mat)
		if err != nil {
			return err
		}
		a.factor = f
	} else if err := a.factor.RefactorFromCSR(a.mat); err != nil {
		a.factor = nil
		return err
	}
	c.met.factorSeconds.ObserveSince(t0)
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
// use it to build the rank-one edit vector of a failure.
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

// ResistorConductance returns the stamped conductance of resistor i, 0 once
// opened.
func (c *Circuit) ResistorConductance(i int) float64 { return c.res[i].cond }

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
// factor, bit-identical to nrhs separate solves, with the caller's solve
// scratch ws. It builds the factor on first use like SolveDCInto would; once
// built it only reads the circuit, so goroutines that each own a workspace
// may solve against one solved circuit concurrently — how Monte-Carlo
// workers share one pristine grid.
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
// terminal A to terminal B; zero when opened.
func (op *OP) ResistorCurrent(i int) float64 {
	r := op.c.res[i]
	if r.cond == 0 {
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
// convention as ResistorCurrent: positive from terminal A to B, zero once
// opened). This is the branch-current extraction the steady-state screen
// runs over the pristine solve — one bulk sweep instead of NumResistors
// bound-checked calls.
func (op *OP) ResistorCurrentsInto(dst []float64) error {
	if len(dst) != len(op.c.res) {
		return fmt.Errorf("spice: ResistorCurrentsInto got %d slots for %d resistors", len(dst), len(op.c.res))
	}
	for i, r := range op.c.res {
		if r.cond == 0 {
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
