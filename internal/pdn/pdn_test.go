package pdn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/emdist"
	"emvia/internal/mc"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/thermal"
	"emvia/internal/viaarray"
)

// analyzeMC runs Analyze's mc engine with the given trial count and seed.
func analyzeMC(cfg TTFConfig, trials int, seed int64) (*mc.Result, error) {
	res, _, err := Analyze(context.Background(), cfg, ScreenConfig{}, mc.Options{Trials: trials, Seed: seed})
	return res, err
}

// screenSteady runs Analyze's steady engine on g with the default screen.
func screenSteady(g *Grid) (*GridScreen, error) {
	_, screen, err := Analyze(context.Background(), TTFConfig{Grid: g}, ScreenConfig{}, mc.Options{Engine: mc.EngineSteady})
	return screen, err
}

func smallSpec() GridSpec {
	s := PG1Spec()
	s.NX, s.NY = 8, 8
	s.PadPeriod = 3
	return s
}

func mustGrid(t *testing.T, spec GridSpec, targetIR float64) *Grid {
	t.Helper()
	g, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if targetIR > 0 {
		if err := g.CalibrateLoad(targetIR); err != nil {
			t.Fatalf("CalibrateLoad: %v", err)
		}
	}
	return g
}

// testModels builds synthetic per-pattern TTF models with medians in years
// reflecting the pattern stress ordering (L best, Plus worst).
func testModels(refCurrent float64) map[cudd.Pattern]viaarray.TTFModel {
	mk := func(medYears, sigma float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: sigma},
			RefCurrent: refCurrent,
			FailK:      16,
		}
	}
	return map[cudd.Pattern]viaarray.TTFModel{
		cudd.Plus:   mk(6, 0.35),
		cudd.TShape: mk(7, 0.35),
		cudd.LShape: mk(8, 0.35),
	}
}

func TestValidateSpec(t *testing.T) {
	bad := smallSpec()
	bad.NX = 1
	if _, err := Generate(bad); err == nil {
		t.Error("accepted 1-stripe grid")
	}
	bad = smallSpec()
	bad.Vdd = 0
	if _, err := Generate(bad); err == nil {
		t.Error("accepted zero Vdd")
	}
	bad = smallSpec()
	bad.PadPeriod = 0
	if _, err := Generate(bad); err == nil {
		t.Error("accepted zero pad period")
	}
	bad = smallSpec()
	bad.PadPeriod = 100
	if _, err := Generate(bad); err == nil {
		t.Error("accepted padless grid")
	}
}

func TestGenerateStructure(t *testing.T) {
	spec := smallSpec()
	g := mustGrid(t, spec, 0)
	nx, ny := spec.NX, spec.NY
	wantWires := ny*(nx-1) + nx*(ny-1)
	wantVias := nx * ny
	if got := len(g.Netlist.Resistors); got != wantWires+wantVias {
		t.Errorf("resistors = %d, want %d", got, wantWires+wantVias)
	}
	if got := len(g.Vias); got != wantVias {
		t.Errorf("vias = %d, want %d", got, wantVias)
	}
	if got := len(g.Netlist.Currents); got != nx*ny {
		t.Errorf("loads = %d, want %d", got, nx*ny)
	}
	if len(g.Netlist.Voltages) == 0 {
		t.Error("no pads")
	}
	// Pattern census: 4 corners L, edge (non-corner) T, interior Plus.
	counts := g.PatternCounts()
	if counts[cudd.LShape] != 4 {
		t.Errorf("L count = %d, want 4", counts[cudd.LShape])
	}
	wantT := 2*(nx-2) + 2*(ny-2)
	if counts[cudd.TShape] != wantT {
		t.Errorf("T count = %d, want %d", counts[cudd.TShape], wantT)
	}
	wantPlus := (nx - 2) * (ny - 2)
	if counts[cudd.Plus] != wantPlus {
		t.Errorf("Plus count = %d, want %d", counts[cudd.Plus], wantPlus)
	}
	// Via resistor indices point at inter-layer resistors.
	for _, v := range g.Vias {
		r := g.Netlist.Resistors[v.ResistorIndex]
		if r.Ohms != spec.ViaArrayR {
			t.Fatalf("via resistor %s has value %g", r.Name, r.Ohms)
		}
	}
	// Total load preserved.
	sum := 0.0
	for _, c := range g.Netlist.Currents {
		sum += c.Amps
	}
	if math.Abs(sum-spec.TotalLoad)/spec.TotalLoad > 1e-9 {
		t.Errorf("total load = %g, want %g", sum, spec.TotalLoad)
	}
}

func TestCalibrateLoad(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	if err := g.CalibrateLoad(0.05); err != nil {
		t.Fatal(err)
	}
	frac, err := g.NominalIRDropFrac()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-0.05) > 1e-6 {
		t.Errorf("calibrated IR drop = %g, want 0.05", frac)
	}
	if err := g.CalibrateLoad(0); err == nil {
		t.Error("accepted zero target")
	}
	if err := g.CalibrateLoad(1.5); err == nil {
		t.Error("accepted target ≥ 1")
	}
}

func TestNewSystemRejectsViolatedNominal(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.2)
	cfg := TTFConfig{
		Grid:       g,
		Models:     testModels(refCurrentOf(t, g)),
		Criterion:  IRDrop,
		IRDropFrac: 0.10,
	}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("accepted grid whose nominal IR drop exceeds the criterion")
	}
}

// refCurrentOf estimates a representative via current for model scaling.
func refCurrentOf(t *testing.T, g *Grid) float64 {
	t.Helper()
	sys, err := NewSystem(TTFConfig{
		Grid:      g,
		Models:    testModels(1), // placeholder scaling
		Criterion: WeakestLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, i := range sys.i0 {
		if i > max {
			max = i
		}
	}
	if max == 0 {
		t.Fatal("grid carries no via current")
	}
	return max
}

func TestConfigValidation(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	if err := (TTFConfig{}).Validate(); err == nil {
		t.Error("accepted empty config")
	}
	cfg := TTFConfig{Grid: g, Models: map[cudd.Pattern]viaarray.TTFModel{}}
	if err := cfg.Validate(); err == nil {
		t.Error("accepted missing pattern models")
	}
	cfg = TTFConfig{Grid: g, Models: testModels(1), Criterion: IRDrop, IRDropFrac: 0}
	if err := cfg.Validate(); err == nil {
		t.Error("accepted zero IR threshold")
	}
}

func TestWeakestLinkSingleEvent(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: WeakestLink}
	res, err := analyzeMC(cfg, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range res.Events {
		if len(ev) != 1 {
			t.Errorf("trial %d: %d events under weakest-link, want 1", i, len(ev))
		}
		if res.TTF[i] != ev[0] {
			t.Errorf("trial %d: TTF %g != first event %g", i, res.TTF[i], ev[0])
		}
	}
}

func TestIRDropOutlivesWeakestLink(t *testing.T) {
	// The paper's central system-level claim: the 10 % IR-drop criterion
	// yields much longer TTFs than weakest-link because the mesh tolerates
	// many failures.
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	wl, err := analyzeMC(TTFConfig{Grid: g, Models: testModels(ref), Criterion: WeakestLink}, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := analyzeMC(TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	mWL := median(t, wl.FiniteTTF())
	mIR := median(t, ir.FiniteTTF())
	t.Logf("median TTF: weakest-link %.2f y, IR-drop %.2f y",
		phys.SecondsToYears(mWL), phys.SecondsToYears(mIR))
	if mIR <= mWL {
		t.Errorf("IR-drop TTF %g not above weakest-link %g", mIR, mWL)
	}
	// IR-drop trials fail multiple arrays before the criterion fires.
	totalEvents := 0
	for _, ev := range ir.Events {
		totalEvents += len(ev)
	}
	if avg := float64(totalEvents) / float64(len(ir.Events)); avg < 2 {
		t.Errorf("IR-drop trials average %.1f failures, expected > 2 (mesh redundancy)", avg)
	}
}

func median(t *testing.T, s []float64) float64 {
	t.Helper()
	e, err := stat.NewECDF(s)
	if err != nil {
		t.Fatal(err)
	}
	return e.Percentile(0.5)
}

func TestLongerLivedModelsExtendGridTTF(t *testing.T) {
	// Doubling every array's median TTF must roughly double the grid TTF
	// (sanity of the model plumbing).
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	base := testModels(ref)
	double := map[cudd.Pattern]viaarray.TTFModel{}
	for k, m := range base {
		m.Dist.Mu += math.Log(2)
		double[k] = m
	}
	r1, err := analyzeMC(TTFConfig{Grid: g, Models: base, Criterion: IRDrop, IRDropFrac: 0.10}, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := analyzeMC(TTFConfig{Grid: g, Models: double, Criterion: IRDrop, IRDropFrac: 0.10}, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := median(t, r1.FiniteTTF()), median(t, r2.FiniteTTF())
	if ratio := m2 / m1; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("doubling model TTF scaled grid TTF by %.2f, want ≈ 2", ratio)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	a, err := analyzeMC(cfg, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analyzeMC(cfg, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TTF {
		if a.TTF[i] != b.TTF[i] {
			t.Fatalf("trial %d: %g != %g", i, a.TTF[i], b.TTF[i])
		}
	}
}

func TestImportRoundTrip(t *testing.T) {
	spec := smallSpec()
	g := mustGrid(t, spec, 0.05)
	var buf bytes.Buffer
	if err := g.Netlist.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDeck(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Vias) != len(g.Vias) {
		t.Fatalf("imported %d vias, want %d", len(back.Vias), len(g.Vias))
	}
	// Pattern census must survive the round trip.
	a, b := g.PatternCounts(), back.PatternCounts()
	for pat, n := range a {
		if b[pat] != n {
			t.Errorf("pattern %v: imported %d, want %d", pat, b[pat], n)
		}
	}
	// And the imported grid must solve to the same nominal IR drop.
	f1, err := g.NominalIRDropFrac()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := back.NominalIRDropFrac()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f1-f2) > 1e-9 {
		t.Errorf("IR drop changed across import: %g vs %g", f1, f2)
	}
}

func TestImportRejectsViaFreeDecks(t *testing.T) {
	nl := &(mustGrid(t, smallSpec(), 0)).Netlist
	_ = nl
	var buf bytes.Buffer
	buf.WriteString("R1 a b 1\nV1 a 0 1.8\n")
	if _, err := LoadDeck(&buf, smallSpec()); err == nil {
		t.Error("accepted deck without via arrays")
	}
}

func TestPatternForExhaustive(t *testing.T) {
	if PatternFor(0, 0, 5, 5) != cudd.LShape {
		t.Error("corner not L")
	}
	if PatternFor(4, 4, 5, 5) != cudd.LShape {
		t.Error("far corner not L")
	}
	if PatternFor(2, 0, 5, 5) != cudd.TShape {
		t.Error("edge not T")
	}
	if PatternFor(2, 2, 5, 5) != cudd.Plus {
		t.Error("interior not Plus")
	}
}

func TestPGSpecsGrowing(t *testing.T) {
	s1, s2, s5 := PG1Spec(), PG2Spec(), PG5Spec()
	if !(s1.NX*s1.NY < s2.NX*s2.NY && s2.NX*s2.NY < s5.NX*s5.NY) {
		t.Error("benchmark sizes not increasing PG1 < PG2 < PG5")
	}
	for _, s := range []GridSpec{s1, s2, s5} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", s.Name, err)
		}
	}
}

func TestTuneHitsBothTargets(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	if err := g.Tune(0.05, 0.01); err != nil {
		t.Fatal(err)
	}
	imax, ir, err := g.MaxViaCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imax-0.01)/0.01 > 0.05 {
		t.Errorf("busiest via current = %g, want ≈ 0.01", imax)
	}
	if math.Abs(ir-0.05)/0.05 > 0.05 {
		t.Errorf("IR fraction = %g, want ≈ 0.05", ir)
	}
	// Re-tuning to different targets converges too.
	if err := g.Tune(0.08, 0.02); err != nil {
		t.Fatal(err)
	}
	imax, ir, err = g.MaxViaCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imax-0.02)/0.02 > 0.05 || math.Abs(ir-0.08)/0.08 > 0.05 {
		t.Errorf("re-tune: imax=%g ir=%g", imax, ir)
	}
}

func TestTuneValidation(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	if err := g.Tune(0, 0.01); err == nil {
		t.Error("accepted zero IR target")
	}
	if err := g.Tune(1.5, 0.01); err == nil {
		t.Error("accepted IR target ≥ 1")
	}
	if err := g.Tune(0.05, 0); err == nil {
		t.Error("accepted zero current target")
	}
}

func TestCriterionString(t *testing.T) {
	if WeakestLink.String() != "Weakest-link" {
		t.Errorf("WeakestLink = %q", WeakestLink)
	}
	if IRDrop.String() != "IR-drop" {
		t.Errorf("IRDrop = %q", IRDrop)
	}
	if s := Criterion(99).String(); s == "" {
		t.Error("unknown criterion empty string")
	}
}

func TestSystemStateAccessors(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	sys, err := NewSystem(TTFConfig{
		Grid:       g,
		Models:     testModels(refCurrentOf(t, g)),
		Criterion:  IRDrop,
		IRDropFrac: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randNew(7)
	if err := sys.BeginTrial(rng); err != nil {
		t.Fatal(err)
	}
	if sys.FailedCount() != 0 {
		t.Errorf("fresh trial FailedCount = %d", sys.FailedCount())
	}
	if frac := sys.WorstIRDropFrac(); math.Abs(frac-0.05) > 0.005 {
		t.Errorf("initial IR frac = %g, want ≈ 0.05", frac)
	}
	if err := sys.Fail(0); err != nil {
		t.Fatal(err)
	}
	if sys.FailedCount() != 1 {
		t.Errorf("FailedCount after one failure = %d", sys.FailedCount())
	}
	if err := sys.Fail(0); err == nil {
		t.Error("double failure accepted")
	}
	// A second BeginTrial restores the pristine state.
	if err := sys.BeginTrial(rng); err != nil {
		t.Fatal(err)
	}
	if sys.FailedCount() != 0 {
		t.Error("BeginTrial did not reset failures")
	}
	if frac := sys.WorstIRDropFrac(); math.Abs(frac-0.05) > 0.005 {
		t.Errorf("restored IR frac = %g", frac)
	}
}

func TestAnalyzeTTFValidation(t *testing.T) {
	if _, err := analyzeMC(TTFConfig{}, 10, 1); err == nil {
		t.Error("accepted empty config")
	}
	g := mustGrid(t, smallSpec(), 0.05)
	cfg := TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: WeakestLink}
	if _, _, err := Analyze(context.Background(), cfg, ScreenConfig{}, mc.Options{Trials: 4, Engine: "bogus"}); err == nil {
		t.Error("accepted unknown engine")
	}
}

func TestNominalIRDropFracRejectsBrokenNetlist(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	// Conflicting pads make compilation fail.
	g.Netlist.Voltages = append(g.Netlist.Voltages, g.Netlist.Voltages[0])
	g.Netlist.Voltages[len(g.Netlist.Voltages)-1].Volts = 99
	if _, err := g.NominalIRDropFrac(); err == nil {
		t.Error("accepted conflicting pads")
	}
}

func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func emdistDefault() emdist.Params { return emdist.Default() }

func TestPowerMapAttribution(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	power, err := g.PowerMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(power) != g.Spec.NX*g.Spec.NY {
		t.Fatalf("power map length %d", len(power))
	}
	total := 0.0
	for i, p := range power {
		if p < 0 {
			t.Fatalf("negative power at node %d", i)
		}
		total += p
	}
	// The grid dissipates roughly Vdd × total load (all load current flows
	// from the pads); Joule + load split must land in that ballpark.
	want := g.Spec.Vdd * g.Spec.TotalLoad
	if total < 0.5*want || total > 1.5*want {
		t.Errorf("total power %g W, expected near %g W", total, want)
	}
}

func TestThermalProfileHotterUnderLoad(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0)
	if err := g.Tune(0.065, 0.01); err != nil {
		t.Fatal(err)
	}
	tm, temps, err := g.ThermalProfile(thermal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != len(g.Vias) {
		t.Fatalf("temps length %d", len(temps))
	}
	for k, tc := range temps {
		if tc <= 44 || tc > 250 {
			t.Errorf("array %d at %g °C implausible", k, tc)
		}
	}
	if tm.MaxTemp() <= tm.MeanTemp() {
		t.Error("max not above mean for a nonuniform power map")
	}
	// Mismatched lattice is rejected.
	bad := thermal.DefaultConfig(3, 3, g.Spec.Pitch)
	if _, _, err := g.ThermalProfile(bad); err == nil {
		t.Error("accepted mismatched thermal lattice")
	}
}

func TestTTFScaleDeratesGrid(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	base := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	r1, err := analyzeMC(base, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.TTFScale = make([]float64, len(g.Vias))
	for i := range scaled.TTFScale {
		scaled.TTFScale[i] = 0.5
	}
	r2, err := analyzeMC(scaled, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := median(t, r1.FiniteTTF()), median(t, r2.FiniteTTF())
	if ratio := m2 / m1; math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("uniform 0.5 derating scaled grid TTF by %g", ratio)
	}
	// Invalid scales rejected.
	bad := base
	bad.TTFScale = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("accepted wrong-length TTFScale")
	}
	bad.TTFScale = make([]float64, len(g.Vias))
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero TTFScale entries")
	}
}

func TestCriticalityReport(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	res, err := analyzeMC(TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CriticalityReport(g, res, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) == 0 || len(rep) > 10 {
		t.Fatalf("report size = %d", len(rep))
	}
	totalFirst := 0
	for i, e := range rep {
		if e.Involvements < e.FirstFailures {
			t.Errorf("entry %d: involvement %d < first %d", i, e.Involvements, e.FirstFailures)
		}
		if i > 0 && rep[i-1].FirstFailures < e.FirstFailures {
			t.Error("report not sorted by first failures")
		}
		totalFirst += e.FirstFailures
	}
	// Every trial has a first failure; with topN=10 the listed entries may
	// not cover all 60, but a meaningful fraction should concentrate there.
	if totalFirst == 0 {
		t.Error("no first failures recorded in the top entries")
	}
	if _, err := CriticalityReport(nil, res, 5); err == nil {
		t.Error("accepted nil grid")
	}
}

func TestWriteIRDropSVG(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	var buf bytes.Buffer
	if err := g.WriteIRDropSVG(&buf, 320); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(out, "worst IR drop") {
		t.Error("missing annotation")
	}
	// Pads marked.
	if !strings.Contains(out, "<circle") {
		t.Error("missing pad markers")
	}
	// Cell count: one rect per intersection.
	if n := strings.Count(out, "<rect"); n != g.Spec.NX*g.Spec.NY {
		t.Errorf("rect count %d, want %d", n, g.Spec.NX*g.Spec.NY)
	}
}

func TestGoldenDeckLoadsAndSolves(t *testing.T) {
	f, err := os.Open("testdata/pg_mini.sp")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec := PG1Spec()
	g, err := LoadDeck(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Vias) != 64 {
		t.Fatalf("golden deck vias = %d, want 64", len(g.Vias))
	}
	imax, ir, err := g.MaxViaCurrent()
	if err != nil {
		t.Fatal(err)
	}
	// The deck was generated tuned to 6.5 % IR / 10 mA busiest array; the
	// solve must reproduce that within write/parse rounding.
	if math.Abs(ir-0.065) > 1e-3 {
		t.Errorf("golden deck IR = %g, want 0.065", ir)
	}
	if math.Abs(imax-0.01) > 1e-4 {
		t.Errorf("golden deck busiest array = %g, want 0.01", imax)
	}
	counts := g.PatternCounts()
	if counts[cudd.LShape] != 4 || counts[cudd.TShape] != 24 || counts[cudd.Plus] != 36 {
		t.Errorf("golden deck pattern census = %v", counts)
	}
}

// TestGenerateNetlistBytes pins the generated netlist byte for byte: node,
// resistor and source names, element order and values all feed the node
// numbering, and so the factor's arithmetic.
func TestGenerateNetlistBytes(t *testing.T) {
	square := PG1Spec()
	square.NX, square.NY = 12, 12
	oblong := PG1Spec()
	oblong.NX, oblong.NY, oblong.PadPeriod = 9, 14, 4
	for _, c := range []struct {
		name string
		spec GridSpec
		want string
	}{
		{"PG1-12x12", square, "a3d2f21a15420af6802c4a71b28c4597e3fd1a51712d04645c0ccea7651c189e"},
		{"9x14-pad4", oblong, "a738016aa25cc052a6ecb913197a0663c4e1d1204444ab36461881d3ca0c0ac6"},
	} {
		g, err := Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Netlist.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s: netlist sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
