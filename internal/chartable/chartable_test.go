package chartable

import (
	"bytes"
	"math"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/phys"
)

func sigma(n int, base float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			s[i][j] = base + float64(i*n+j)*1e6
		}
	}
	return s
}

func key(n int) Key {
	return Key{
		LayerPair: cudd.LayerPair{Lower: cudd.Intermediate, Upper: cudd.Top},
		Pattern:   cudd.Plus,
		ArrayN:    n,
	}
}

func TestAddValidation(t *testing.T) {
	tab := New()
	if err := tab.Add(Entry{Key: Key{ArrayN: 0}, WireWidth: 1e-6, Sigma: nil}); err == nil {
		t.Error("accepted ArrayN=0")
	}
	if err := tab.Add(Entry{Key: key(2), WireWidth: 0, Sigma: sigma(2, 2e8)}); err == nil {
		t.Error("accepted zero width")
	}
	if err := tab.Add(Entry{Key: key(2), WireWidth: 1e-6, Sigma: sigma(3, 2e8)}); err == nil {
		t.Error("accepted wrong sigma shape")
	}
	bad := sigma(2, 2e8)
	bad[1] = bad[1][:1]
	if err := tab.Add(Entry{Key: key(2), WireWidth: 1e-6, Sigma: bad}); err == nil {
		t.Error("accepted ragged sigma")
	}
	if err := tab.Add(Entry{Key: key(2), WireWidth: 1e-6, Sigma: sigma(2, 2e8)}); err != nil {
		t.Errorf("rejected valid entry: %v", err)
	}
}

func TestAddReplacesSameWidth(t *testing.T) {
	tab := New()
	mustAdd(t, tab, Entry{Key: key(1), WireWidth: 2e-6, Sigma: sigma(1, 2e8)})
	mustAdd(t, tab, Entry{Key: key(1), WireWidth: 2e-6, Sigma: sigma(1, 3e8)})
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", tab.Len())
	}
	got, err := tab.Lookup(key(1), 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 3e8 {
		t.Errorf("replacement not effective: %g", got[0][0])
	}
}

func mustAdd(t *testing.T, tab *Table, e Entry) {
	t.Helper()
	if err := tab.Add(e); err != nil {
		t.Fatalf("Add: %v", err)
	}
}

func TestLookupInterpolatesAndClamps(t *testing.T) {
	tab := New()
	mustAdd(t, tab, Entry{Key: key(2), WireWidth: 2e-6, Sigma: sigma(2, 200e6)})
	mustAdd(t, tab, Entry{Key: key(2), WireWidth: 4e-6, Sigma: sigma(2, 300e6)})

	// Exact hits.
	got, err := tab.Lookup(key(2), 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 200e6 {
		t.Errorf("exact lookup = %g", got[0][0])
	}
	// Midpoint interpolation, per via.
	got, err = tab.Lookup(key(2), 3e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 250e6 + float64(i*2+j)*1e6
			if math.Abs(got[i][j]-want) > 1 {
				t.Errorf("interp via (%d,%d) = %g, want %g", i, j, got[i][j], want)
			}
		}
	}
	// Clamping below and above.
	got, _ = tab.Lookup(key(2), 1e-6)
	if got[0][0] != 200e6 {
		t.Errorf("clamp low = %g", got[0][0])
	}
	got, _ = tab.Lookup(key(2), 9e-6)
	if got[0][0] != 300e6 {
		t.Errorf("clamp high = %g", got[0][0])
	}
	// Missing family and bad width.
	if _, err := tab.Lookup(key(4), 2e-6); err == nil {
		t.Error("lookup of missing family succeeded")
	}
	if _, err := tab.Lookup(key(2), -1); err == nil {
		t.Error("lookup with negative width succeeded")
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	tab := New()
	mustAdd(t, tab, Entry{Key: key(1), WireWidth: 2e-6, Sigma: sigma(1, 2e8)})
	got, _ := tab.Lookup(key(1), 2e-6)
	got[0][0] = -1
	again, _ := tab.Lookup(key(1), 2e-6)
	if again[0][0] != 2e8 {
		t.Error("Lookup exposed internal storage")
	}
}

func TestKeysStableOrder(t *testing.T) {
	tab := New()
	k1 := Key{LayerPair: cudd.LayerPair{Lower: cudd.Top, Upper: cudd.Top}, Pattern: cudd.LShape, ArrayN: 8}
	k2 := Key{LayerPair: cudd.LayerPair{Lower: cudd.Intermediate, Upper: cudd.Intermediate}, Pattern: cudd.Plus, ArrayN: 4}
	mustAdd(t, tab, Entry{Key: k1, WireWidth: 2e-6, Sigma: sigma(8, 2e8)})
	mustAdd(t, tab, Entry{Key: k2, WireWidth: 2e-6, Sigma: sigma(4, 2e8)})
	keys := tab.Keys()
	if len(keys) != 2 || keys[0] != k2 || keys[1] != k1 {
		t.Errorf("Keys order = %v", keys)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := New()
	mustAdd(t, tab, Entry{Key: key(2), WireWidth: 2e-6, Sigma: sigma(2, 200e6)})
	mustAdd(t, tab, Entry{Key: key(2), WireWidth: 4e-6, Sigma: sigma(2, 300e6)})
	mustAdd(t, tab, Entry{Key: key(1), WireWidth: 2e-6, Sigma: sigma(1, 250e6)})

	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("round trip Len = %d, want %d", back.Len(), tab.Len())
	}
	for _, k := range tab.Keys() {
		for _, w := range tab.Widths(k) {
			a, err := tab.Lookup(k, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.Lookup(k, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Errorf("round trip mismatch at %v w=%g via (%d,%d)", k, w, i, j)
					}
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := Load(bytes.NewBufferString(`[{"array_n":0,"wire_width_m":1e-6}]`)); err == nil {
		t.Error("accepted invalid entry")
	}
}

// feaSigma characterizes p by a default FEA solve, with no cache.
func feaSigma(p cudd.Params) ([][]float64, error) {
	res, err := cudd.Characterize(p, fem.SolveOptions{})
	if err != nil {
		return nil, err
	}
	return res.PeakSigmaT, nil
}

func TestBuildRunsFEACampaign(t *testing.T) {
	base := cudd.DefaultParams()
	base.Margin = 1.0 * phys.Micron
	base.SubstrateThickness = 0.8 * phys.Micron
	base.StepOutside = 0.6 * phys.Micron
	base.StepZBulk = 1.0 * phys.Micron
	var calls int
	tab, err := Build(BuildSpec{
		LayerPairs:   []cudd.LayerPair{{Lower: cudd.Intermediate, Upper: cudd.Intermediate}},
		Patterns:     []cudd.Pattern{cudd.Plus, cudd.TShape},
		ArrayNs:      []int{2},
		WireWidths:   []float64{2e-6, 2.5e-6},
		Base:         base,
		Progress:     func(Key, float64) { calls++ },
		Characterize: feaSigma,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("progress calls = %d, want 4", calls)
	}
	if tab.Len() != 4 {
		t.Errorf("table Len = %d, want 4", tab.Len())
	}
	// Interpolated width between the two characterized points is bracketed.
	k := Key{LayerPair: cudd.LayerPair{Lower: cudd.Intermediate, Upper: cudd.Intermediate}, Pattern: cudd.Plus, ArrayN: 2}
	lo, err := tab.Lookup(k, 2e-6)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := tab.Lookup(k, 2.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := tab.Lookup(k, 2.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	a, b := lo[0][0], hi[0][0]
	if a > b {
		a, b = b, a
	}
	if mid[0][0] < a-1 || mid[0][0] > b+1 {
		t.Errorf("interpolated stress %g not bracketed by [%g, %g]", mid[0][0], a, b)
	}
}

func TestBuildEmptySpec(t *testing.T) {
	if _, err := Build(BuildSpec{Characterize: feaSigma}); err == nil {
		t.Error("accepted empty spec")
	}
	if _, err := Build(BuildSpec{
		LayerPairs: []cudd.LayerPair{{Lower: cudd.Intermediate, Upper: cudd.Intermediate}},
		Patterns:   []cudd.Pattern{cudd.Plus},
		ArrayNs:    []int{2},
		WireWidths: []float64{2e-6},
		Base:       cudd.DefaultParams(),
	}); err == nil {
		t.Error("accepted a spec without Characterize")
	}
}

func TestInterpolationAccuracyVsExactFEA(t *testing.T) {
	// The paper limits w_n to 3 characterized widths and interpolates in
	// between; quantify the interpolation error against an exact FEA at the
	// midpoint width.
	base := cudd.DefaultParams()
	base.Margin = 1.0 * phys.Micron
	base.SubstrateThickness = 0.8 * phys.Micron
	base.StepOutside = 0.5 * phys.Micron
	base.StepZBulk = 1.0 * phys.Micron
	lp := cudd.LayerPair{Lower: cudd.Intermediate, Upper: cudd.Intermediate}
	tab, err := Build(BuildSpec{
		LayerPairs:   []cudd.LayerPair{lp},
		Patterns:     []cudd.Pattern{cudd.Plus},
		ArrayNs:      []int{2},
		WireWidths:   []float64{2e-6, 3e-6},
		Base:         base,
		Characterize: feaSigma,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := Key{LayerPair: lp, Pattern: cudd.Plus, ArrayN: 2}
	interp, err := tab.Lookup(k, 2.5e-6)
	if err != nil {
		t.Fatal(err)
	}
	exactP := base
	exactP.LayerPair = lp
	exactP.Pattern = cudd.Plus
	exactP.ArrayN = 2
	exactP.WireWidth = 2.5e-6
	exact, err := cudd.Characterize(exactP, fem.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			rel := math.Abs(interp[i][j]-exact.PeakSigmaT[i][j]) / exact.PeakSigmaT[i][j]
			if rel > 0.05 {
				t.Errorf("via (%d,%d): interpolation error %.1f%% exceeds 5%%", i, j, 100*rel)
			}
		}
	}
}
