package pdn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"emvia/internal/mc"
)

func mustScreenedSystem(t *testing.T, g *Grid) (*GridSystem, *GridScreen) {
	t.Helper()
	sys, err := NewSystem(TTFConfig{
		Grid:       g,
		Models:     testModels(refCurrentOf(t, g)),
		Criterion:  IRDrop,
		IRDropFrac: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	screen, err := sys.SteadyScreen(ScreenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, screen
}

func TestSteadyScreenClassifies(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	_, screen := mustScreenedSystem(t, g)
	if screen.Vias != len(g.Vias) {
		t.Fatalf("screen covers %d vias, want %d", screen.Vias, len(g.Vias))
	}
	if len(screen.ViaStress) != screen.Vias || len(screen.ViaMargin) != screen.Vias || len(screen.ViaMortal) != screen.Vias {
		t.Fatal("per-via arrays not parallel to the via list")
	}
	if screen.SigmaCritVia <= screen.SigmaTVia {
		t.Fatalf("no screening headroom: σ_crit %g ≤ σ_T %g", screen.SigmaCritVia, screen.SigmaTVia)
	}
	if screen.MortalVias == 0 {
		t.Fatal("a loaded grid must have mortal vias")
	}
	for k := 0; k < screen.Vias; k++ {
		if math.IsNaN(screen.ViaStress[k]) || math.IsInf(screen.ViaStress[k], 0) {
			t.Fatalf("via %d stress %g", k, screen.ViaStress[k])
		}
		if screen.ViaMortal[k] != (screen.ViaMargin[k] <= 0) {
			t.Fatalf("via %d: mortal=%v but margin %g", k, screen.ViaMortal[k], screen.ViaMargin[k])
		}
	}
	if screen.Wire == nil || screen.Wire.Trees == 0 {
		t.Fatal("wire report missing")
	}
	if screen.Segments != len(g.Netlist.Resistors)-len(g.Vias) {
		t.Errorf("segments = %d, want %d", screen.Segments, len(g.Netlist.Resistors)-len(g.Vias))
	}
	t.Logf("screen: %d/%d mortal vias (%.0f%%), %d wire trees, σ_crit %.0f MPa",
		screen.MortalVias, screen.Vias, 100*screen.MortalViaFraction(),
		screen.Wire.Trees, screen.SigmaCritVia/1e6)
}

func TestScreenGridStandalone(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	sys, viaSys := mustScreenedSystem(t, g)
	_ = sys
	res, solo, err := Analyze(context.Background(), TTFConfig{Grid: g}, ScreenConfig{}, mc.Options{Engine: mc.EngineSteady})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Error("steady engine returned a Monte-Carlo result")
	}
	if solo.MortalVias != viaSys.MortalVias {
		t.Errorf("standalone screen found %d mortal vias, system screen %d", solo.MortalVias, viaSys.MortalVias)
	}
	for k := range solo.ViaStress {
		if solo.ViaStress[k] != viaSys.ViaStress[k] {
			t.Fatalf("via %d stress differs: %g vs %g", k, solo.ViaStress[k], viaSys.ViaStress[k])
		}
	}
	if _, err := screenSteady(nil); err == nil {
		t.Error("accepted nil grid")
	}
}

// TestLegacyFailuresWithinMortalSet is the screening soundness property on
// randomized small grids: every via array the unpruned Monte Carlo observes
// failing (before the system criterion fires) must be classified mortal by
// the steady screen. A miss here means -engine=both would drop statistics
// -engine=mc would have produced.
func TestLegacyFailuresWithinMortalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		spec := smallSpec()
		spec.NX = 6 + rng.Intn(4)
		spec.NY = 6 + rng.Intn(4)
		spec.PadPeriod = 2 + rng.Intn(2)
		targetIR := 0.04 + 0.03*rng.Float64()
		g := mustGrid(t, spec, targetIR)
		sys, screen := mustScreenedSystem(t, g)
		res, err := analyzeMC(sys.cfg, 40, 1000+int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		misses := res.MaskMisses(screen.ViaMortal)
		if len(misses) > 0 {
			for _, k := range misses {
				t.Errorf("grid %dx%d pad %d ir %.3f: via %d failed in MC but screened immortal (i0 %.4g A, margin %.3g MPa)",
					spec.NX, spec.NY, spec.PadPeriod, targetIR, k, sys.i0[k], screen.ViaMargin[k]/1e6)
			}
			t.Fatalf("%d mortal-set misses", len(misses))
		}
		t.Logf("grid %dx%d pad %d ir %.3f: %d/%d mortal, 0 misses over 40 trials",
			spec.NX, spec.NY, spec.PadPeriod, targetIR, screen.MortalVias, screen.Vias)
	}
}

// TestScreenedBitIdenticalToMaskedFull pins the per-component substream
// contract: a masked run restricted to the mortal set is bit-identical to a
// masked run over all components whenever the full run's failures all land
// in the mortal set — shrinking the mask must never perturb the surviving
// components' sampled lifetimes or the trial outcomes built from them.
func TestScreenedBitIdenticalToMaskedFull(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	sys, screen := mustScreenedSystem(t, g)
	all := make([]bool, len(g.Vias))
	for i := range all {
		all[i] = true
	}
	run := func(mask []bool) *mc.Result {
		t.Helper()
		clone := sys.Clone()
		res, err := mc.Run(clone, mc.Options{
			Trials:     30,
			Seed:       77,
			Engine:     mc.EngineBoth,
			Candidates: mask,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(all)
	if misses := full.MaskMisses(screen.ViaMortal); len(misses) > 0 {
		t.Fatalf("full masked run failed %d vias outside the mortal set; screen not conservative here", len(misses))
	}
	pruned := run(screen.CandidateMask())
	for i := range full.TTF {
		if full.TTF[i] != pruned.TTF[i] {
			t.Fatalf("trial %d TTF differs: %g (full) vs %g (pruned)", i, full.TTF[i], pruned.TTF[i])
		}
		if len(full.Events[i]) != len(pruned.Events[i]) {
			t.Fatalf("trial %d event count differs: %d vs %d", i, len(full.Events[i]), len(pruned.Events[i]))
		}
		for j := range full.Events[i] {
			if full.Events[i][j] != pruned.Events[i][j] || full.EventComps[i][j] != pruned.EventComps[i][j] {
				t.Fatalf("trial %d event %d differs: (%g, %d) vs (%g, %d)", i, j,
					full.Events[i][j], full.EventComps[i][j], pruned.Events[i][j], pruned.EventComps[i][j])
			}
		}
	}
}

// TestAnalyzeTTFScreened exercises Analyze's both engine end to end:
// screen, prune, run, assert zero misses, and keep the surviving TTF
// distribution in the same ballpark as the unpruned engine.
func TestAnalyzeTTFScreened(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{
		Grid:       g,
		Models:     testModels(refCurrentOf(t, g)),
		Criterion:  IRDrop,
		IRDropFrac: 0.10,
	}
	res, screen, err := Analyze(context.Background(), cfg, ScreenConfig{}, mc.Options{Trials: 40, Seed: 7, Engine: mc.EngineBoth})
	if err != nil {
		t.Fatal(err)
	}
	if screen.MortalVias == 0 || screen.MortalVias > screen.Vias {
		t.Fatalf("mortal count %d of %d", screen.MortalVias, screen.Vias)
	}
	legacy, err := analyzeMC(cfg, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	mScr := median(t, res.FiniteTTF())
	mLeg := median(t, legacy.FiniteTTF())
	if ratio := mScr / mLeg; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("screened median TTF off by %.2fx vs legacy", ratio)
	}
	// Pruned components must never appear in the event log.
	if misses := res.MaskMisses(screen.ViaMortal); len(misses) > 0 {
		t.Fatalf("screened run failed outside its own mask: %v", misses)
	}
}

func TestSetCandidatesValidation(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	sys, _ := mustScreenedSystem(t, g)
	if err := sys.SetCandidates(make([]bool, 3)); err == nil {
		t.Error("accepted wrong-length mask")
	}
	if err := sys.SetCandidates(make([]bool, len(g.Vias))); err == nil {
		t.Error("accepted all-false mask")
	}
	mask := make([]bool, len(g.Vias))
	mask[0] = true
	if err := sys.SetCandidates(mask); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCandidates(nil); err != nil {
		t.Fatal(err)
	}
	if sys.masked || len(sys.candidates) != len(g.Vias) {
		t.Error("nil mask did not restore every array as a candidate")
	}
}

// TestSteadyScreenMetamorphicLoadScaling scales every load current of a
// small PG1 grid by s. The steady stress is linear in the drops below Vdd,
// so each via array's stress above its pre-stress, x(s), must scale by s,
// and the mortal set at a larger s must contain the set at a smaller one.
// The gmin leak's current does not scale with the loads, so x(s) = a + s·b
// with a small leak term a: the test fits a and b from the first two scales,
// requires x(s) = a + s·b at every scale to 1e-9 and |a| to stay below 1e-6
// of x(1). (Pure proportionality holds only to about 2e-8 on this grid.)
func TestSteadyScreenMetamorphicLoadScaling(t *testing.T) {
	scales := []float64{1, 1.5, 3}
	screens := make([]*GridScreen, len(scales))
	for i, s := range scales {
		g := mustGrid(t, smallSpec(), 0.02)
		for j := range g.Netlist.Currents {
			g.Netlist.Currents[j].Amps *= s
		}
		screen, err := screenSteady(g)
		if err != nil {
			t.Fatal(err)
		}
		screens[i] = screen
	}
	x := func(i, k int) float64 { return screens[i].ViaStress[k] - screens[i].SigmaTVia }
	for k := range screens[0].ViaStress {
		b := (x(1, k) - x(0, k)) / (scales[1] - scales[0])
		a := x(0, k) - scales[0]*b
		if math.Abs(a) > 1e-6*math.Abs(x(0, k)) {
			t.Fatalf("via %d: stress above σ_T %g has a load-free part %g", k, x(0, k), a)
		}
		for i, s := range scales {
			if want := a + s*b; math.Abs(x(i, k)-want) > 1e-9*math.Abs(want) {
				t.Fatalf("s=%g via %d: stress above σ_T %g, want %g", s, k, x(i, k), want)
			}
		}
	}
	if screens[0].MortalVias == 0 {
		t.Fatal("base grid has no mortal vias")
	}
	for i := 1; i < len(scales); i++ {
		prev, cur := screens[i-1], screens[i]
		for k, mortal := range prev.ViaMortal {
			if mortal && !cur.ViaMortal[k] {
				t.Fatalf("via %d mortal at s=%g but immortal at s=%g", k, scales[i-1], scales[i])
			}
		}
		if cur.MortalVias <= prev.MortalVias {
			t.Errorf("s=%g: %d mortal vias, want more than the %d at s=%g", scales[i], cur.MortalVias, prev.MortalVias, scales[i-1])
		}
	}
}
