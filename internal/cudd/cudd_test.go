package cudd

import (
	"bytes"
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"emvia/internal/fem"
	"emvia/internal/mat"
	"emvia/internal/phys"
)

// testParams returns a coarse, fast configuration for unit tests.
func testParams(n int, pat Pattern) Params {
	p := DefaultParams()
	p.ArrayN = n
	p.Pattern = pat
	p.Margin = 1.0 * phys.Micron
	p.SubstrateThickness = 0.8 * phys.Micron
	p.StepOutside = 0.5 * phys.Micron
	p.StepZBulk = 1.0 * phys.Micron
	return p
}

func TestValidate(t *testing.T) {
	if _, err := (Params{ArrayN: 0, WireWidth: 1, ViaArea: 1}).Validate(); err == nil {
		t.Error("accepted ArrayN=0")
	}
	if _, err := (Params{ArrayN: 1, WireWidth: 0, ViaArea: 1}).Validate(); err == nil {
		t.Error("accepted zero wire width")
	}
	if _, err := (Params{ArrayN: 1, WireWidth: 1, ViaArea: 0}).Validate(); err == nil {
		t.Error("accepted zero via area")
	}
	// Array wider than wire must be rejected: 4×4 with 1 µm² in a 1 µm wire
	// has extent 1.75 µm > 1 µm.
	bad := DefaultParams()
	bad.WireWidth = 1 * phys.Micron
	if _, err := bad.Validate(); err == nil {
		t.Error("accepted array extent exceeding wire width")
	}
	good, err := DefaultParams().Validate()
	if err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if good.StepArray == 0 || good.StepOutside == 0 {
		t.Error("Validate did not fill resolution defaults")
	}
}

func TestGeometryDerivations(t *testing.T) {
	p, err := DefaultParams().Validate()
	if err != nil {
		t.Fatal(err)
	}
	// 4×4, 1 µm²: side 0.25 µm, pitch 0.5 µm, extent 1.75 µm.
	if got := p.viaSide(); math.Abs(got-0.25*phys.Micron) > 1e-15 {
		t.Errorf("viaSide = %g", got)
	}
	if got := p.pitch(); math.Abs(got-0.5*phys.Micron) > 1e-15 {
		t.Errorf("pitch = %g", got)
	}
	if got := p.arrayExtent(); math.Abs(got-1.75*phys.Micron) > 1e-15 {
		t.Errorf("arrayExtent = %g", got)
	}
	if got := p.DeltaT(); got != -145 {
		t.Errorf("DeltaT = %g, want -145", got)
	}
	// Via centres are symmetric about the domain centre.
	cx, cy := p.domainCenter()
	x00, y00 := p.ViaCenter(0, 0)
	x33, y33 := p.ViaCenter(3, 3)
	if math.Abs((x00+x33)/2-cx) > 1e-15 || math.Abs((y00+y33)/2-cy) > 1e-15 {
		t.Errorf("via array not centred: corners (%g,%g) (%g,%g), centre (%g,%g)", x00, y00, x33, y33, cx, cy)
	}
}

func TestBuildMaterialSanity(t *testing.T) {
	g, p, err := Build(testParams(2, Plus))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []mat.ID{mat.Silicon, mat.Copper, mat.SiCOH, mat.SiN, mat.Tantalum} {
		if g.CountMaterial(id) == 0 {
			t.Errorf("no cells of material %v", id)
		}
	}
	if g.CountMaterial(mat.None) != 0 {
		t.Errorf("unpainted cells remain: %d", g.CountMaterial(mat.None))
	}
	st := p.stack()
	// The via column at a via centre must be copper above the liner,
	// punching the cap; between vias the cap level must be SiN.
	vx, vy := p.ViaCenter(0, 0)
	zCap := (st.mxTop + st.capTop) / 2
	i, j, k, ok := g.FindCell(vx, vy, zCap)
	if !ok {
		t.Fatal("via centre not in grid")
	}
	if got := g.Material(i, j, k); got != mat.Copper && got != mat.Tantalum {
		t.Errorf("via column at cap level = %v, want Cu or Ta", got)
	}
	gapX := (vx + p.pitch()/2)
	i, j, k, _ = g.FindCell(gapX, vy, zCap)
	if got := g.Material(i, j, k); got != mat.SiN {
		t.Errorf("cap between vias = %v, want Si3N4", got)
	}
	// Liner pad sits directly on Mx top under the via.
	i, j, k, _ = g.FindCell(vx, vy, st.mxTop+p.LinerThickness/2)
	if got := g.Material(i, j, k); got != mat.Tantalum {
		t.Errorf("via bottom = %v, want Ta liner", got)
	}
	// Lower wire present under the via, upper wire above it.
	i, j, k, _ = g.FindCell(vx, vy, (st.mxBot+st.mxTop)/2)
	if got := g.Material(i, j, k); got != mat.Copper {
		t.Errorf("Mx under via = %v, want Cu", got)
	}
	i, j, k, _ = g.FindCell(vx, vy, (st.viaTop+st.mx1Top)/2)
	if got := g.Material(i, j, k); got != mat.Copper {
		t.Errorf("Mx+1 above via = %v, want Cu", got)
	}
}

func TestBuildPatternTermination(t *testing.T) {
	size := testParams(2, Plus).WireWidth + 2*testParams(2, Plus).Margin
	st := func(p Params) stack { v, _ := p.Validate(); return v.stack() }

	// Plus: Mx spans the full x extent; L: it terminates past the centre.
	gPlus, pPlus, err := Build(testParams(2, Plus))
	if err != nil {
		t.Fatal(err)
	}
	gL, pL, err := Build(testParams(2, LShape))
	if err != nil {
		t.Fatal(err)
	}
	_, cy := pPlus.domainCenter()
	zMx := (st(pPlus).mxBot + st(pPlus).mxTop) / 2
	farX := size - 0.1*phys.Micron

	i, j, k, _ := gPlus.FindCell(farX, cy, zMx)
	if got := gPlus.Material(i, j, k); got != mat.Copper {
		t.Errorf("Plus: Mx far end = %v, want Cu", got)
	}
	i, j, k, _ = gL.FindCell(farX, cy, zMx)
	if got := gL.Material(i, j, k); got != mat.SiCOH {
		t.Errorf("L: Mx far end = %v, want ILD", got)
	}
	// T: upper wire terminates on the +y side, continues on −y.
	gT, pT, err := Build(testParams(2, TShape))
	if err != nil {
		t.Fatal(err)
	}
	cx, _ := pT.domainCenter()
	zMx1 := (st(pT).viaTop + st(pT).mx1Top) / 2
	i, j, k, _ = gT.FindCell(cx, size-0.1*phys.Micron, zMx1)
	if got := gT.Material(i, j, k); got != mat.SiCOH {
		t.Errorf("T: Mx+1 far +y end = %v, want ILD", got)
	}
	i, j, k, _ = gT.FindCell(cx, 0.1*phys.Micron, zMx1)
	if got := gT.Material(i, j, k); got != mat.Copper {
		t.Errorf("T: Mx+1 −y end = %v, want Cu", got)
	}
	_ = pL
}

func TestCharacterizeTensileAndPlausible(t *testing.T) {
	res, err := Characterize(testParams(2, Plus), fem.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PeakSigmaT) != 2 || len(res.PeakSigmaT[0]) != 2 {
		t.Fatalf("PeakSigmaT shape = %dx%d", len(res.PeakSigmaT), len(res.PeakSigmaT[0]))
	}
	for j, row := range res.PeakSigmaT {
		for i, v := range row {
			if v < 30*phys.MPa || v > 1500*phys.MPa {
				t.Errorf("via (%d,%d): σ_T = %.1f MPa outside plausible tensile range", i, j, v/phys.MPa)
			}
		}
	}
	// 2×2 array is fully symmetric: all four peaks should agree closely.
	ref := res.PeakSigmaT[0][0]
	for j, row := range res.PeakSigmaT {
		for i, v := range row {
			if math.Abs(v-ref)/ref > 0.08 {
				t.Errorf("via (%d,%d): σ_T = %.1f MPa, breaks 2×2 symmetry vs %.1f", i, j, v/phys.MPa, ref/phys.MPa)
			}
		}
	}
	if res.MaxPeak() < res.MinPeak() {
		t.Error("MaxPeak < MinPeak")
	}
}

func TestCharacterizePatternOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("3 FEA solves")
	}
	peaks := map[Pattern]float64{}
	for _, pat := range Patterns() {
		res, err := Characterize(testParams(2, pat), fem.SolveOptions{})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		peaks[pat] = res.MaxPeak()
	}
	t.Logf("peak σ_T: Plus=%.1f T=%.1f L=%.1f MPa",
		peaks[Plus]/phys.MPa, peaks[TShape]/phys.MPa, peaks[LShape]/phys.MPa)
	// Paper §3.2: the Plus pattern is the most constrained and sees the most
	// stress; T and L are attenuated by the extra surrounding ILD.
	if !(peaks[Plus] > peaks[TShape] && peaks[TShape] > peaks[LShape]) {
		t.Errorf("pattern stress ordering violated: Plus=%.1f T=%.1f L=%.1f MPa",
			peaks[Plus]/phys.MPa, peaks[TShape]/phys.MPa, peaks[LShape]/phys.MPa)
	}
}

func TestCharacterizeInnerViasSeeLessStress(t *testing.T) {
	if testing.Short() {
		t.Skip("4×4 FEA solve")
	}
	res, err := Characterize(testParams(4, Plus), fem.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 1: inner vias of a 4×4 array see lower stress than the
	// perimeter vias.
	inner := (res.PeakSigmaT[1][1] + res.PeakSigmaT[1][2] + res.PeakSigmaT[2][1] + res.PeakSigmaT[2][2]) / 4
	corner := (res.PeakSigmaT[0][0] + res.PeakSigmaT[0][3] + res.PeakSigmaT[3][0] + res.PeakSigmaT[3][3]) / 4
	t.Logf("inner σ_T = %.1f MPa, corner σ_T = %.1f MPa", inner/phys.MPa, corner/phys.MPa)
	if inner >= corner {
		t.Errorf("inner vias (%.1f MPa) not less stressed than corner vias (%.1f MPa)",
			inner/phys.MPa, corner/phys.MPa)
	}
}

func TestRowScanProducesProfile(t *testing.T) {
	res, err := Characterize(testParams(2, Plus), fem.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xs, sh := res.RowScan(0)
	if len(xs) < 5 || len(xs) != len(sh) {
		t.Fatalf("RowScan lengths = %d,%d", len(xs), len(sh))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("scan x not increasing")
		}
	}
	// The scan runs inside the Mx wire, so all samples are tensile copper.
	for i, v := range sh {
		if v <= 0 {
			t.Errorf("scan sample %d: σ_H = %g not tensile", i, v)
		}
	}
}

func TestViaSpacingRule(t *testing.T) {
	// Equal-area default: gap = side, pitch = 2·side.
	p, err := DefaultParams().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Pitch()-2*p.ViaSide()) > 1e-18 {
		t.Errorf("default pitch = %g, want 2×side %g", p.Pitch(), 2*p.ViaSide())
	}
	// A spacing rule above the side stretches the array (the paper's
	// stated future work).
	ruled := DefaultParams()
	ruled.ViaSpacing = 0.3 * phys.Micron // side is 0.25 µm for 4×4
	rv, err := ruled.Validate()
	if err != nil {
		t.Fatal(err)
	}
	wantExtent := 4*0.25*phys.Micron + 3*0.3*phys.Micron
	if math.Abs(rv.ArrayExtent()-wantExtent) > 1e-15 {
		t.Errorf("ruled extent = %g, want %g", rv.ArrayExtent(), wantExtent)
	}
	// An 8×8 array under a strict rule no longer fits the 2 µm wire.
	tight := DefaultParams()
	tight.ArrayN = 8
	tight.ViaSpacing = 0.2 * phys.Micron // extent = 8·0.125 + 7·0.2 = 2.4 µm
	if _, err := tight.Validate(); err == nil {
		t.Error("accepted spacing-ruled array wider than the wire")
	}
	// A rule below the natural gap changes nothing.
	loose := DefaultParams()
	loose.ViaSpacing = 0.1 * phys.Micron
	lv, err := loose.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if lv.Pitch() != p.Pitch() {
		t.Errorf("sub-gap rule changed pitch: %g vs %g", lv.Pitch(), p.Pitch())
	}
}

func TestViaSpacingBuildsAndCharacterizes(t *testing.T) {
	p := testParams(2, Plus)
	p.ViaSpacing = 0.7 * phys.Micron // side 0.5 µm, so the rule stretches
	res, err := Characterize(p, fem.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.PeakSigmaT {
		for _, v := range row {
			if v < 30*phys.MPa || v > 1500*phys.MPa {
				t.Errorf("ruled-array σ_T = %g MPa implausible", v/phys.MPa)
			}
		}
	}
}

func TestWriteCrossSectionSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStructureSVG(&buf, testParams(2, Plus), 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatal("output is not an SVG document")
	}
	// Well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("malformed SVG: %v", err)
		}
	}
	// Every structural material appears (colors from the legend).
	for _, color := range []string{"#6b6b6b", "#c97a3d", "#dfe8f0", "#3f6fb5", "#7fb069"} {
		if !strings.Contains(out, color) {
			t.Errorf("SVG missing material color %s", color)
		}
	}
	// Out-of-grid slice is rejected.
	g, _, err := Build(testParams(2, Plus))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCrossSectionSVG(&buf, g, 1, 400); err == nil {
		t.Error("accepted y outside the grid")
	}
}
