package pdn

import (
	"context"
	"fmt"
	"math"

	"emvia/internal/emdist"
	"emvia/internal/spice"
	"emvia/internal/steady"
	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// ScreenConfig tunes the grid-level steady-state EM screen (arXiv
// 2112.13451 applied to the mesh): which critical-stress quantile bounds
// mortality and what thermomechanical pre-stress the via barriers carry.
type ScreenConfig struct {
	// EM supplies the Korhonen constants; the zero value selects
	// emdist.Default().
	EM emdist.Params
	// CritQuantile is the quantile of the lognormal critical-stress
	// distribution used as the nucleation threshold. Screening against a
	// low quantile is what makes the classification conservative: a
	// component is only called immortal when even a weak flaw could not
	// nucleate at its steady-state stress cap. 0 selects 1e-3.
	CritQuantile float64
	// SigmaTVia is the thermomechanical pre-stress at the via barriers, Pa
	// (the FEA characterization's scale); 0 selects the calibration value.
	SigmaTVia float64
	// SigmaCritWire is the wire-tree mortality threshold, Pa; 0 selects
	// the same critical-stress quantile (wires carry no via pre-stress).
	SigmaCritWire float64
}

func (sc ScreenConfig) withDefaults() ScreenConfig {
	if sc.EM.Omega == 0 {
		sc.EM = emdist.Default()
	}
	if sc.CritQuantile == 0 {
		sc.CritQuantile = 1e-3
	}
	if sc.SigmaTVia == 0 {
		sc.SigmaTVia = emdist.CalibrationSigmaT
	}
	return sc
}

// GridScreen is the steady-state classification of one grid: every mesh
// segment and every via array immortal/mortal with stress margins — the
// -engine=steady result artifact, and the candidate mask -engine=both feeds
// into the Monte Carlo.
type GridScreen struct {
	// Wire is the tree-level screen of the mesh segments (vias excluded:
	// their liner barriers bound the trees).
	Wire *steady.Report
	// ViaStress, ViaMargin and ViaMortal classify each via array (g.Vias
	// order): ViaStress is the steady-state stress cap at the array's
	// barriers (pre-stress included), ViaMargin the headroom to the
	// critical stress (negative = mortal).
	ViaStress []float64
	ViaMargin []float64
	ViaMortal []bool
	// MortalVias / Vias and MortalSegments / Segments are the headline
	// classification counts.
	MortalVias, Vias         int
	MortalSegments, Segments int
	// SigmaCritVia and SigmaCritWire echo the resolved thresholds, Pa.
	SigmaCritVia  float64
	SigmaCritWire float64
	// SigmaTVia echoes the via barrier pre-stress used, Pa.
	SigmaTVia float64
}

// CandidateMask returns the mortal-via mask in mc.Options.Candidates form.
// The returned slice is freshly allocated each call.
func (s *GridScreen) CandidateMask() []bool {
	mask := make([]bool, len(s.ViaMortal))
	copy(mask, s.ViaMortal)
	return mask
}

// MortalViaFraction is the fraction of via arrays classified mortal.
func (s *GridScreen) MortalViaFraction() float64 {
	if s.Vias == 0 {
		return 0
	}
	return float64(s.MortalVias) / float64(s.Vias)
}

// screenGraph builds the steady-state wire graph of a compiled grid: every
// non-via resistor becomes a branch (uniform volume — the synthetic mesh
// uses one wire cross-section and pitch throughout), pads become flux
// boundaries. Via resistors are excluded: their liner barriers are what
// partition the metal into independent trees.
func screenGraph(g *Grid, circuit *spice.Circuit, op *spice.OP) (*steady.Graph, []bool, error) {
	isVia := make([]bool, circuit.NumResistors())
	for _, v := range g.Vias {
		if v.ResistorIndex < 0 || v.ResistorIndex >= len(isVia) {
			return nil, nil, fmt.Errorf("pdn: via resistor index %d out of range", v.ResistorIndex)
		}
		isVia[v.ResistorIndex] = true
	}
	n := circuit.NumNodes()
	sg := &steady.Graph{
		NumNodes: n,
		V:        make([]float64, n),
		Blocked:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		sg.V[i] = op.VoltageAt(i)
		sg.Blocked[i] = circuit.IsPad(i)
	}
	for ri := 0; ri < circuit.NumResistors(); ri++ {
		if isVia[ri] {
			continue
		}
		a, b := circuit.ResistorNodes(ri)
		if a < 0 || b < 0 {
			continue // ground-terminated elements are not wire metal
		}
		sg.Branches = append(sg.Branches, steady.Branch{A: a, B: b})
	}
	return sg, isVia, nil
}

// screenGrid classifies the grid against the solved pristine operating
// point. Wire trees are screened on their signed steady tension. A via
// array is screened on the unsigned steady deviation at its terminal nodes
// plus half its own voltage drop: the array TTF model is direction-agnostic
// (the characterized σ_T and TTF(I) apply whichever barrier the flux
// divergence loads), so the conservative stress scale of a junction is how
// far its potential sits from the tree's atom-conservation mean — large for
// exactly the pad- and load-side arrays that carry the grid's current, zero
// for junctions the current passes by.
func screenGrid(g *Grid, circuit *spice.Circuit, op *spice.OP, sc ScreenConfig) (*GridScreen, error) {
	sc = sc.withDefaults()
	reg := telemetry.Default()
	t0 := reg.Histogram(telemetry.SteadyScreenSeconds).Start()
	sg, _, err := screenGraph(g, circuit, op)
	if err != nil {
		return nil, err
	}
	dist, err := sc.EM.SigmaCDist()
	if err != nil {
		return nil, fmt.Errorf("pdn: critical-stress distribution: %w", err)
	}
	sigmaCrit := dist.Quantile(sc.CritQuantile)
	if !(sigmaCrit > 0) {
		return nil, fmt.Errorf("pdn: critical-stress quantile %g resolves to %g", sc.CritQuantile, sigmaCrit)
	}
	wireCrit := sc.SigmaCritWire
	if wireCrit == 0 {
		wireCrit = sigmaCrit
	}
	rep, err := steady.Screen(sg, steady.Config{EM: sc.EM, SigmaCrit: wireCrit})
	if err != nil {
		return nil, err
	}
	out := &GridScreen{
		Wire:           rep,
		ViaStress:      make([]float64, len(g.Vias)),
		ViaMargin:      make([]float64, len(g.Vias)),
		ViaMortal:      make([]bool, len(g.Vias)),
		Vias:           len(g.Vias),
		Segments:       len(sg.Branches),
		MortalSegments: rep.MortalBranches,
		SigmaCritVia:   sigmaCrit,
		SigmaCritWire:  wireCrit,
		SigmaTVia:      sc.SigmaTVia,
	}
	for k, v := range g.Vias {
		a, b := circuit.ResistorNodes(v.ResistorIndex)
		dev := 0.0
		if a >= 0 {
			if d := math.Abs(rep.Stress[a]); d > dev {
				dev = d
			}
		}
		if b >= 0 {
			if d := math.Abs(rep.Stress[b]); d > dev {
				dev = d
			}
		}
		// Half the array's own voltage drop is the Blech term of the via
		// body itself (the junction-to-barrier segment of the tree).
		cond := circuit.ResistorConductance(v.ResistorIndex)
		current := math.Abs(op.ResistorCurrent(v.ResistorIndex))
		if cond > 0 {
			dev += rep.Chi * (current / cond) / 2
		}
		stress := sc.SigmaTVia + dev
		out.ViaStress[k] = stress
		out.ViaMargin[k] = sigmaCrit - stress
		// A zero-current array never ages in the TTF model (its sampled
		// lifetime is +Inf at any stress), so it stays immortal regardless.
		if current > 0 && stress >= sigmaCrit {
			out.ViaMortal[k] = true
			out.MortalVias++
		}
	}
	reg.Counter(telemetry.SteadyScreens).Inc()
	reg.Counter(telemetry.SteadyMortalVias).Add(int64(out.MortalVias))
	reg.Counter(telemetry.SteadyImmortalVias).Add(int64(out.Vias - out.MortalVias))
	reg.Histogram(telemetry.SteadyScreenSeconds).ObserveSince(t0)
	return out, nil
}

// SteadyScreen classifies every component of the system's grid against its
// pristine operating point — the linear-time pre-pass of -engine=steady and
// -engine=both. It reuses the system's compiled circuit and pristine solve,
// so the screen costs one O(branches) sweep, no extra linear solves.
func (s *GridSystem) SteadyScreen(sc ScreenConfig) (*GridScreen, error) {
	return screenGrid(s.cfg.Grid, s.circuit, s.op0, sc)
}

// ScreenGrid solves a private copy of the grid's compiled circuit and runs
// the steady-state screen — the standalone -engine=steady path, which never
// builds TTF models or touches the Monte Carlo.
func ScreenGrid(g *Grid, sc ScreenConfig) (*GridScreen, error) {
	return ScreenGridCtx(context.Background(), g, sc)
}

// ScreenGridCtx is ScreenGrid with a context whose timeline (if any) gets
// the "compile", "factorize" and "screen" stage spans. The context is
// observational only — the screen is a single bounded pass.
func ScreenGridCtx(ctx context.Context, g *Grid, sc ScreenConfig) (*GridScreen, error) {
	if g == nil {
		return nil, fmt.Errorf("pdn: ScreenGrid needs a grid")
	}
	tl := trace.TimelineFrom(ctx)
	endCompile := tl.Stage("compile")
	circuit, err := g.pristineCircuit()
	endCompile()
	if err != nil {
		return nil, fmt.Errorf("pdn: compiling grid: %w", err)
	}
	endFactorize := tl.Stage("factorize")
	op, err := circuit.SolveDC()
	endFactorize()
	if err != nil {
		return nil, fmt.Errorf("pdn: pristine solve: %w", err)
	}
	endScreen := tl.Stage("screen")
	defer endScreen()
	return screenGrid(g, circuit, op, sc)
}
