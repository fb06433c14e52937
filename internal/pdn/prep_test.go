package pdn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"emvia/internal/mc"
	"emvia/internal/spice"
	"emvia/internal/telemetry"
)

// freshOpened compiles a copy of nl without the resistors in open and solves
// it: an operating point that shares nothing with a compiled grid circuit.
// It also returns the nodes no remaining resistor path joins to a pad
// (resistors of 1e20 Ω and more count as open): their voltages are set by
// the gmin leak alone.
func freshOpened(t *testing.T, nl *spice.Netlist, open map[int]bool) (*spice.OP, map[string]bool) {
	t.Helper()
	cp := &spice.Netlist{Title: nl.Title, Currents: nl.Currents, Voltages: nl.Voltages}
	adj := map[string][]string{}
	for i, r := range nl.Resistors {
		if !open[i] {
			cp.Resistors = append(cp.Resistors, r)
			if r.Ohms < 1e20 {
				adj[r.A] = append(adj[r.A], r.B)
				adj[r.B] = append(adj[r.B], r.A)
			}
		}
	}
	c, err := spice.Compile(cp)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	var queue []string
	for _, v := range nl.Voltages {
		reached[v.Node] = true
		queue = append(queue, v.Node)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !reached[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	floating := map[string]bool{}
	for i := 0; i < c.NumNodes(); i++ {
		if name := c.NodeName(i); !reached[name] {
			floating[name] = true
		}
	}
	return op, floating
}

// nodeVolts returns a node's voltage by name; ground reads 0.
func nodeVolts(t *testing.T, op *spice.OP, name string) float64 {
	t.Helper()
	if spice.IsGround(name) {
		return 0
	}
	v, err := op.Voltage(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// posedTracker follows whether a trial's state is well posed: no surviving
// via array touches a floating node. Once one does, its current is a
// difference of leak-set voltages, so the order of later failures carries no
// information and the references stop comparing.
type posedTracker struct {
	posed []int // per trial, the failures chosen from a well-posed state
	ok    bool
}

func (p *posedTracker) begin() {
	p.posed = append(p.posed, 0)
	p.ok = true
}

// record notes one failure of g's arrays (alive after it) that left the
// nodes in floating unjoined to any pad.
func (p *posedTracker) record(g *Grid, alive []bool, floating map[string]bool) {
	if !p.ok {
		return
	}
	p.posed[len(p.posed)-1]++
	for i, v := range g.Vias {
		r := g.Netlist.Resistors[v.ResistorIndex]
		if alive[i] && (floating[r.A] || floating[r.B]) {
			p.ok = false
			return
		}
	}
}

// refSystem runs a GridSystem's sampling but takes every post-failure state
// from freshOpened: the failed arrays are removed from the netlist and each
// array current is read by node name.
type refSystem struct {
	*GridSystem
	t    *testing.T
	open map[int]bool
	ir   float64
	posedTracker
}

func (r *refSystem) BeginTrial(rng *rand.Rand) error {
	r.open, r.ir = map[int]bool{}, 0
	r.begin()
	return r.GridSystem.BeginTrial(rng)
}

func (r *refSystem) Fail(k int) error {
	s := r.GridSystem
	s.alive[k] = false
	nl := s.cfg.Grid.Netlist
	r.open[s.cfg.Grid.Vias[k].ResistorIndex] = true
	op, floating := freshOpened(r.t, nl, r.open)
	for i, v := range s.cfg.Grid.Vias {
		s.iNow[i] = 0
		if s.alive[i] {
			res := nl.Resistors[v.ResistorIndex]
			s.iNow[i] = math.Abs(nodeVolts(r.t, op, res.A)-nodeVolts(r.t, op, res.B)) / res.Ohms
		}
	}
	r.ir = op.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd)
	r.record(s.cfg.Grid, s.alive, floating)
	return nil
}

func (r *refSystem) Failed() (bool, error) { return r.ir >= r.cfg.IRDropFrac, nil }

// unprepared hides every optional interface of sys — the engine then never
// calls PrepareTrials, the per-trial path a reference run takes.
func unprepared(sys mc.System) mc.System { return struct{ mc.System }{sys} }

// checkedSystem runs a GridSystem and compares each well-posed post-failure
// operating point with freshOpened at every node joined to a pad. rebases
// counts, per trial, the compared failures that rebased the cascade.
type checkedSystem struct {
	*GridSystem
	t       *testing.T
	open    map[int]bool
	worst   float64
	rebases []int
	posedTracker
}

func (c *checkedSystem) BeginTrial(rng *rand.Rand) error {
	c.open = map[int]bool{}
	c.rebases = append(c.rebases, 0)
	c.begin()
	return c.GridSystem.BeginTrial(rng)
}

func (c *checkedSystem) Fail(k int) error {
	s := c.GridSystem
	base := s.casc.rb
	if err := s.Fail(k); err != nil {
		return err
	}
	if !c.ok {
		return nil
	}
	c.open[s.cfg.Grid.Vias[k].ResistorIndex] = true
	ref, floating := freshOpened(c.t, s.cfg.Grid.Netlist, c.open)
	if c.record(s.cfg.Grid, s.alive, floating); !c.ok {
		return nil
	}
	if s.casc.rb != base {
		c.rebases[len(c.rebases)-1]++
	}
	vdd := s.cfg.Grid.Spec.Vdd
	now := presentOP(c.t, s)
	for i := 0; i < s.circuit.NumNodes(); i++ {
		name := s.circuit.NodeName(i)
		if floating[name] {
			continue
		}
		if d := math.Abs(now.VoltageAt(i)-nodeVolts(c.t, ref, name)) / vdd; d > c.worst {
			c.worst = d
		}
	}
	return nil
}

// presentOP scatters the trial's present free-node solution into a fresh
// operating point of the shared circuit, for per-node comparisons.
func presentOP(t *testing.T, s *GridSystem) *spice.OP {
	t.Helper()
	op := s.circuit.NewOP()
	if err := s.circuit.ScatterFree(op, s.casc.solution()); err != nil {
		t.Fatal(err)
	}
	return op
}

// sameTrials fails unless got matches want's TTFs to 1e-9 and its failure
// sequences exactly over the first posed[i] failures of trial i.
func sameTrials(t *testing.T, got, want *mc.Result, posed []int) {
	t.Helper()
	for i := range want.TTF {
		a, b := want.TTF[i], got.TTF[i]
		if !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			if d := math.Abs(a-b) / math.Max(math.Abs(a), 1); d > 1e-9 {
				t.Fatalf("trial %d: TTF %g vs reference %g (rel %g)", i, b, a, d)
			}
		}
		n := posed[i]
		if len(got.EventComps[i]) < n || fmt.Sprint(got.EventComps[i][:n]) != fmt.Sprint(want.EventComps[i][:n]) {
			t.Fatalf("trial %d: failure sequence %v vs reference %v (first %d compared)", i, got.EventComps[i], want.EventComps[i], n)
		}
	}
}

// withRegistry installs a fresh telemetry registry for the rest of the test.
func withRegistry(t *testing.T) *telemetry.Registry {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	return reg
}

// TestPreparedTrialsMatchLegacy cross-checks the low-rank cascade against an
// independent reference: every post-failure operating point must match a
// fresh compile of the netlist with the trial's failed arrays removed, and
// the TTFs and failure sequences must match a run that takes every state
// from such compiles. Trials run to completion, so every cascade outgrows
// the rank cap and the rebase is checked too; the checks stop where a
// surviving array is cut off from every pad (posedTracker).
func TestPreparedTrialsMatchLegacy(t *testing.T) {
	reg := withRegistry(t)
	spec := smallSpec()
	spec.NX, spec.NY = 12, 12
	g := mustGrid(t, spec, 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10}
	opt := mc.Options{Trials: 12, Seed: 11, RunToCompletion: true}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bind the rank cap well before any array is cut off from the pads.
	sys.rankCap = min(sys.rankCap, 24)
	checked := &checkedSystem{GridSystem: sys, t: t}
	got, err := mc.Run(checked, opt)
	if err != nil {
		t.Fatal(err)
	}
	if checked.worst > 1e-9 {
		t.Errorf("post-failure node voltages deviate from a fresh compile by %g·Vdd, want ≤ 1e-9", checked.worst)
	}
	for i, n := range checked.rebases {
		if n == 0 {
			t.Errorf("trial %d never rebased before its first island", i)
		}
	}
	if n := reg.Counter(telemetry.CascadeFallbacks(rebaseRank)).Value(); n < int64(opt.Trials) {
		t.Errorf("%d rank-cap rebases, want at least one per trial (%d)", n, opt.Trials)
	}

	refSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refSystem{GridSystem: refSys, t: t}
	want, err := mc.Run(unprepared(ref), opt)
	if err != nil {
		t.Fatal(err)
	}
	sameTrials(t, got, want, ref.posed)
}

// TestPreparedTrialsEngage checks that the cascade serves at least 95 % of
// failures and that its steps read the shared response cache — guarding
// against the fast path silently degrading to the factor path.
func TestPreparedTrialsEngage(t *testing.T) {
	reg := withRegistry(t)
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10}
	master, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil },
		mc.Options{Trials: 64, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for _, c := range res.EventComps {
		fails += len(c)
	}
	steps := reg.Counter(telemetry.CascadeSteps).Value()
	if fails == 0 || float64(steps) < 0.95*float64(fails) {
		t.Errorf("cascade served %d of %d failures, want ≥ 95 %%", steps, fails)
	}
	if n := reg.Counter(telemetry.CascadeResponseHits).Value(); n == 0 {
		t.Error("no cascade step read the response cache")
	}

	// Weakest-link trials end at the first failure, before any re-solve,
	// so they need no responses.
	cfg.Criterion = WeakestLink
	cfg.IRDropFrac = 0
	wl, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wl.cache != nil {
		t.Fatal("weakest-link system built a response cache")
	}
}

// TestPreparedParallelMatchesSerial pins worker invariance of the cascade
// and its shared response cache end to end on a real grid system.
func TestPreparedParallelMatchesSerial(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	master, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := mc.Options{Trials: 48, Seed: 3} // three 16-trial groups, one per worker
	serial, err := mc.Run(master, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 3
	parallel, err := mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil }, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.TTF {
		if serial.TTF[i] != parallel.TTF[i] && !(math.IsInf(serial.TTF[i], 1) && math.IsInf(parallel.TTF[i], 1)) {
			t.Fatalf("trial %d: parallel TTF %g != serial %g", i, parallel.TTF[i], serial.TTF[i])
		}
	}
}

// TestCascadePivotFallback opens a via array whose lower node has lost its
// wires, leaving the node hanging on the gmin leak: the pivot guard must
// rebase every trial at that first failure, and the rest of the cascade must
// still match fresh compiles.
func TestCascadePivotFallback(t *testing.T) {
	reg := withRegistry(t)
	g := mustGrid(t, smallSpec(), 0.05)
	k := 2*g.Spec.NX + 2 // interior array (2,2)
	via := g.Netlist.Resistors[g.Vias[k].ResistorIndex]
	for i, r := range g.Netlist.Resistors {
		if i != g.Vias[k].ResistorIndex && (r.A == via.A || r.B == via.A) {
			g.Netlist.Resistors[i].Ohms = 1e30
		}
	}
	scale := make([]float64, len(g.Vias))
	for i := range scale {
		scale[i] = 1
	}
	scale[k] = 1e-9 // array k fails first in every trial
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10, TTFScale: scale}
	opt := mc.Options{Trials: 8, Seed: 2, RunToCompletion: true}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := &checkedSystem{GridSystem: sys, t: t}
	got, err := mc.Run(checked, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got.EventComps {
		if len(c) == 0 || c[0] != k {
			t.Fatalf("trial %d: first failure %v, want array %d", i, c, k)
		}
		if checked.rebases[i] == 0 {
			t.Fatalf("trial %d: hanging array %d did not rebase", i, k)
		}
	}
	if n := reg.Counter(telemetry.CascadeFallbacks(rebasePivot)).Value(); n < int64(opt.Trials) {
		t.Errorf("%d pivot rebases, want at least one per trial (%d)", n, opt.Trials)
	}
	if checked.worst > 1e-9 {
		t.Errorf("post-failure node voltages deviate from a fresh compile by %g·Vdd, want ≤ 1e-9", checked.worst)
	}
	refSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refSystem{GridSystem: refSys, t: t}
	want, err := mc.Run(unprepared(ref), opt)
	if err != nil {
		t.Fatal(err)
	}
	sameTrials(t, got, want, ref.posed)
}

// TestCascadeRebasesTwice lowers the rank cap so that a single trial rebases
// at least twice while its grid is still well posed, and requires every
// compared state to match a fresh compile at 1e-9·Vdd on every node joined
// to a pad, and the TTFs and failure sequences to match the fresh-compile
// reference run: a rebase restarts the cascade on a base that already has
// openings in it, so the second rebase is the one that checks the restart.
func TestCascadeRebasesTwice(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10}
	opt := mc.Options{Trials: 4, Seed: 13, RunToCompletion: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.rankCap = 3
	checked := &checkedSystem{GridSystem: sys, t: t}
	got, err := mc.Run(checked, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rebases per trial while well posed %v, worst deviation %.2e·Vdd", checked.rebases, checked.worst)
	if most := slices.Max(checked.rebases); most < 2 {
		t.Fatalf("no trial rebased twice before its first island (rebases per trial %v)", checked.rebases)
	}
	if checked.worst > 1e-9 {
		t.Errorf("post-failure node voltages deviate from a fresh compile by %g·Vdd, want ≤ 1e-9", checked.worst)
	}
	refSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refSystem{GridSystem: refSys, t: t}
	want, err := mc.Run(unprepared(ref), opt)
	if err != nil {
		t.Fatal(err)
	}
	sameTrials(t, got, want, ref.posed)
}

// TestCascadeMetamorphicLoadScaling checks the paper's physics through the
// whole Monte Carlo: doubling every load doubles every current and IR drop,
// so with the IR-drop threshold doubled too (5 % → 10 %) every trial must
// fail the same arrays in the same order, and since TTF ∝ 1/j² every
// failure time must scale by 1/4. It runs on the cascade and, with the rank
// cap forced to 0, on a rebase at every failure ("factor").
//
// The scaling holds to the accuracy of the array currents, which are
// differences of node voltages: the pristine solve's absolute error of
// about cond(A)·ε·Vdd ≈ 1e-12 V is 1e-8 of a 1e-4 V via drop, and the
// sampled TTFs of the two grids already differ by up to 1.5e-8 (the same
// on either path). The check allows 1e-7.
func TestCascadeMetamorphicLoadScaling(t *testing.T) {
	base := mustGrid(t, smallSpec(), 0.02)
	doubled := mustGrid(t, smallSpec(), 0.02)
	for i := range doubled.Netlist.Currents {
		doubled.Netlist.Currents[i].Amps *= 2
	}
	models := testModels(refCurrentOf(t, base))
	for _, path := range []string{"cascade", "factor"} {
		t.Run(path, func(t *testing.T) {
			run := func(g *Grid, frac float64) *mc.Result {
				t.Helper()
				s, err := NewSystem(TTFConfig{Grid: g, Models: models, Criterion: IRDrop, IRDropFrac: frac})
				if err != nil {
					t.Fatal(err)
				}
				if path == "factor" {
					s.rankCap = 0
				}
				res, err := mc.Run(s, mc.Options{Trials: 24, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(base, 0.05), run(doubled, 0.10)
			rel := func(x, y float64) float64 { return math.Abs(x-y) / math.Abs(y) }
			for i := range a.TTF {
				if fmt.Sprint(a.EventComps[i]) != fmt.Sprint(b.EventComps[i]) {
					t.Fatalf("trial %d: doubled loads fail %v, base %v", i, b.EventComps[i], a.EventComps[i])
				}
				if math.IsInf(a.TTF[i], 1) || rel(b.TTF[i], a.TTF[i]/4) > 1e-7 {
					t.Fatalf("trial %d: doubled-load TTF %g, want base %g / 4", i, b.TTF[i], a.TTF[i])
				}
				for j := range a.Events[i] {
					if rel(b.Events[i][j], a.Events[i][j]/4) > 1e-7 {
						t.Fatalf("trial %d failure %d: doubled-load time %g, want base %g / 4", i, j, b.Events[i][j], a.Events[i][j])
					}
				}
			}
		})
	}
}

// TestCascadeSharedMasterWorkers runs four workers against one shared master
// — circuit, factor and response cache — and requires the serial results bit
// for bit (the CI race step runs it under -race). The tight case caps the
// rank and the cache so that workers also rebase concurrently and keep
// responses in trial-local storage.
func TestCascadeSharedMasterWorkers(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10}
	for _, tight := range []bool{false, true} {
		t.Run(fmt.Sprintf("tight=%v", tight), func(t *testing.T) {
			master := func() *GridSystem {
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tight {
					s.rankCap = 4
					s.cache.room = 3
				}
				return s
			}
			opt := mc.Options{Trials: 64, Seed: 9, RunToCompletion: true} // a 16-trial group per worker
			serial, err := mc.Run(master(), opt)
			if err != nil {
				t.Fatal(err)
			}
			shared := master()
			opt.Workers = 4
			parallel, err := mc.RunParallel(func() (mc.System, error) { return shared.Clone(), nil }, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial.TTF {
				if math.Float64bits(serial.TTF[i]) != math.Float64bits(parallel.TTF[i]) ||
					fmt.Sprint(serial.Events[i]) != fmt.Sprint(parallel.Events[i]) {
					t.Fatalf("trial %d: 4 workers give TTF %v events %v, serial %v %v",
						i, parallel.TTF[i], parallel.Events[i], serial.TTF[i], serial.Events[i])
				}
			}
		})
	}
}

// TestCascadeMetricsExposed checks that the cascade's counters reach the
// Prometheus exposition that /metrics serves, every labeled series present.
func TestCascadeMetricsExposed(t *testing.T) {
	reg := withRegistry(t)
	g := mustGrid(t, smallSpec(), 0.05)
	s, err := NewSystem(TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run(s, mc.Options{Trials: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"emvia_pdn_cascade_steps_total ",
		"emvia_pdn_cascade_response_hits_total ",
		`emvia_pdn_cascade_response_fills_total{path="miss"} `,
		`emvia_pdn_cascade_fallbacks_total{reason="rank"} `,
		`emvia_pdn_cascade_fallbacks_total{reason="pivot"} `,
	} {
		if !strings.Contains(buf.String(), "\n"+series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
	if strings.Contains(buf.String(), "\nemvia_pdn_cascade_steps_total 0\n") {
		t.Error("cascade steps not counted")
	}
}

// irCheckedSystem runs a GridSystem and, after BeginTrial and after every
// Fail, requires Failed and WorstIRDropFrac to equal bit for bit what
// spice.OP.WorstIRDropFrac reports for the present free-node solution
// scattered into a fresh operating point. It counts the checked states, and
// among them those past the criterion, those on a rebased cascade and those
// whose lowest node is a pad.
type irCheckedSystem struct {
	*GridSystem
	t                                *testing.T
	checks, failed, rebased, padMins int
}

func (c *irCheckedSystem) BeginTrial(rng *rand.Rand) error {
	if err := c.GridSystem.BeginTrial(rng); err != nil {
		return err
	}
	c.check()
	return nil
}

func (c *irCheckedSystem) Fail(k int) error {
	if err := c.GridSystem.Fail(k); err != nil {
		return err
	}
	c.check()
	return nil
}

func (c *irCheckedSystem) check() {
	c.t.Helper()
	s := c.GridSystem
	op := presentOP(c.t, s)
	want := op.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd)
	if got := s.WorstIRDropFrac(); math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("after %d failures: WorstIRDropFrac %v, scattered operating point %v", s.FailedCount(), got, want)
	}
	failed, err := s.Failed()
	if err != nil {
		c.t.Fatal(err)
	}
	if failed != (want >= s.cfg.IRDropFrac) {
		c.t.Fatalf("after %d failures: Failed %v at worst IR drop %v (threshold %v)", s.FailedCount(), failed, want, s.cfg.IRDropFrac)
	}
	c.checks++
	if failed {
		c.failed++
	}
	if s.casc.rb != nil {
		c.rebased++
	}
	if _, node := op.MinVoltage(); s.circuit.IsPad(node) {
		c.padMins++
	}
}

// TestCascadeIRCriterionFromFreeSolution checks the IR-drop criterion read
// from the cascade's free-node solution and the least pad voltage against
// the operating point it replaces, on cascade steps, on rank-cap rebases,
// and on a deck whose lowest node is a pad held 5 % below Vdd behind a
// 1 kΩ resistor, so the pad minimum decides the early states.
func TestCascadeIRCriterionFromFreeSolution(t *testing.T) {
	lowPad := mustGrid(t, smallSpec(), 0.02)
	nl := lowPad.Netlist
	nl.Voltages = append(nl.Voltages, spice.VoltageSource{Name: "Vlow", Node: "nlow", Volts: 0.95 * lowPad.Spec.Vdd})
	nl.Resistors = append(nl.Resistors, spice.Resistor{Name: "Rlow", A: "nlow", B: nodeName(2, 0, 0), Ohms: 1e3})
	for _, c := range []struct {
		name    string
		g       *Grid
		rankCap int // 0 keeps the system's own
		padMins bool
	}{
		{"cascade", mustGrid(t, smallSpec(), 0.05), 0, false},
		{"rebases", mustGrid(t, smallSpec(), 0.05), 3, false},
		{"pad-minimum", lowPad, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := TTFConfig{Grid: c.g, Models: testModels(refCurrentOf(t, c.g)), Criterion: IRDrop, IRDropFrac: 0.10}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.rankCap > 0 {
				sys.rankCap = c.rankCap
			}
			if got := sys.WorstIRDropFrac(); got != 0 {
				t.Fatalf("WorstIRDropFrac before any trial = %v, want 0", got)
			}
			checked := &irCheckedSystem{GridSystem: sys, t: t}
			if _, err := mc.Run(checked, mc.Options{Trials: 4, Seed: 5, RunToCompletion: true}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states checked: %d past the criterion, %d rebased, %d with a pad as the lowest node",
				checked.checks, checked.failed, checked.rebased, checked.padMins)
			if checked.failed == 0 || checked.failed == checked.checks {
				t.Fatal("the checked states do not straddle the criterion")
			}
			if c.rankCap > 0 && checked.rebased == 0 {
				t.Fatalf("no checked state on a rebased cascade with rank cap %d", c.rankCap)
			}
			if c.padMins && checked.padMins == 0 {
				t.Fatal("no checked state had a pad as its lowest node")
			}
			if c.padMins && checked.padMins == checked.checks {
				t.Fatal("every checked state had a pad as its lowest node")
			}
		})
	}
}
