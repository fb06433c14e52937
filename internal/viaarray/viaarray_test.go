package viaarray

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"emvia/internal/cudd"
	"emvia/internal/emdist"
	"emvia/internal/mc"
	"emvia/internal/phys"
	"emvia/internal/stat"
)

// uniformSigma builds an n×n stress matrix with constant σ_T.
func uniformSigma(n int, v float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			s[i][j] = v
		}
	}
	return s
}

// testConfig returns a sane configuration for an n×n array.
func testConfig(n, failK int) Config {
	return Config{
		N:              n,
		SigmaT:         uniformSigma(n, 230e6),
		EM:             emdist.Default(),
		CurrentDensity: 1e10,
		ViaArea:        1e-12,
		RVia:           0.15 * float64(n*n), // per-via scales with n²
		RSegBottom:     0.02,
		RSegTop:        0.02,
		FailK:          failK,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(2, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.SigmaT = uniformSigma(3, 1e8) },
		func(c *Config) { c.SigmaT[1] = c.SigmaT[1][:1] },
		func(c *Config) { c.CurrentDensity = 0 },
		func(c *Config) { c.ViaArea = -1 },
		func(c *Config) { c.RVia = 0 },
		func(c *Config) { c.RSegBottom = -1 },
		func(c *Config) { c.FailK = 0 },
		func(c *Config) { c.FailK = 5 },
		func(c *Config) { c.EM.D0 = 0 },
	}
	for i, mutate := range cases {
		c := testConfig(2, 4)
		c.SigmaT = uniformSigma(2, 230e6) // fresh copy per case
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDeltaRFraction(t *testing.T) {
	// Paper's worked example: 4×4 (n=16), one failure → 1/15 ≈ 6.7 %;
	// eight failures → 100 %.
	if got := DeltaRFraction(16, 1); math.Abs(got-1.0/15) > 1e-12 {
		t.Errorf("ΔR/R(16,1) = %g, want 1/15", got)
	}
	if got := DeltaRFraction(16, 8); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ΔR/R(16,8) = %g, want 1", got)
	}
	if got := DeltaRFraction(16, 16); !math.IsInf(got, 1) {
		t.Errorf("ΔR/R(16,16) = %g, want +Inf", got)
	}
}

func TestFailKForResistanceFactor(t *testing.T) {
	if got := FailKForResistanceFactor(4, 2); got != 8 {
		t.Errorf("FailK(4×4, R=2×) = %d, want 8", got)
	}
	if got := FailKForResistanceFactor(8, 2); got != 32 {
		t.Errorf("FailK(8×8, R=2×) = %d, want 32", got)
	}
	if got := FailKForResistanceFactor(4, math.Inf(1)); got != 16 {
		t.Errorf("FailK(4×4, R=∞) = %d, want 16", got)
	}
	if got := FailKForResistanceFactor(1, math.Inf(1)); got != 1 {
		t.Errorf("FailK(1×1, R=∞) = %d, want 1", got)
	}
}

func TestCurrentConservation(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		cfg := testConfig(n, n*n)
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		if err := a.BeginTrial(rng); err != nil {
			t.Fatal(err)
		}
		aVia := cfg.ViaArea / float64(n*n)
		total := 0.0
		for i := 0; i < n*n; i++ {
			total += a.j0[i] * aVia
		}
		want := cfg.CurrentDensity * cfg.ViaArea
		if math.Abs(total-want)/want > 1e-6 {
			t.Errorf("n=%d: via currents sum to %g, want %g", n, total, want)
		}
	}
}

func TestCurrentCrowding(t *testing.T) {
	// With corner feed, the via nearest the feed/extraction path carries
	// more current than the most remote via.
	cfg := testConfig(4, 16)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginTrial(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	// Feed at bottom column 0, extraction at top row n−1: via (0, n−1) is
	// on the shortest path, via (n−1, 0) on the longest.
	near := a.j0[a.viaIndex(0, 3)]
	far := a.j0[a.viaIndex(3, 0)]
	if near <= far {
		t.Errorf("no crowding: near-feed j=%g ≤ far j=%g", near, far)
	}
	// Uniform feed removes crowding entirely.
	cfg.Feed = UniformFeed
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.BeginTrial(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		if math.Abs(u.j0[i]-u.j0[0]) > 1e-9*u.j0[0] {
			t.Errorf("uniform feed: via %d j=%g differs from via 0 j=%g", i, u.j0[i], u.j0[0])
		}
	}
}

func TestFailureRedistributesCurrent(t *testing.T) {
	cfg := testConfig(2, 4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginTrial(rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), a.jNow...)
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	if a.AgingRate(0) != 0 {
		t.Error("failed via still aging")
	}
	// Survivors must carry more total current than before.
	sumAfter := 0.0
	for i := 1; i < 4; i++ {
		sumAfter += a.jNow[i]
		if a.AgingRate(i) < 1-1e-9 {
			t.Errorf("survivor %d aging rate %g < 1 after failure", i, a.AgingRate(i))
		}
	}
	sumBefore := before[1] + before[2] + before[3]
	if sumAfter <= sumBefore {
		t.Errorf("survivor current did not rise: %g vs %g", sumAfter, sumBefore)
	}
	// Double-fail is an error.
	if err := a.Fail(0); err == nil {
		t.Error("double Fail accepted")
	}
}

func TestResistanceFollowsEquation5(t *testing.T) {
	// With near-ideal wires the array is n² parallel vias and the
	// resistance trajectory must match equation (5).
	cfg := testConfig(4, 16)
	cfg.RSegBottom = 0
	cfg.RSegTop = 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginTrial(rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	r0, err := a.Resistance()
	if err != nil {
		t.Fatal(err)
	}
	want0 := cfg.RVia / 16
	if math.Abs(r0-want0)/want0 > 1e-3 {
		t.Fatalf("nominal R = %g, want %g", r0, want0)
	}
	for nf := 1; nf <= 8; nf++ {
		if err := a.Fail(nf - 1); err != nil {
			t.Fatal(err)
		}
		r, err := a.Resistance()
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + DeltaRFraction(16, nf)
		if got := r / r0; math.Abs(got-want)/want > 1e-3 {
			t.Errorf("after %d failures R/R0 = %g, want %g", nf, got, want)
		}
	}
}

func TestAllFailedResistanceInfinite(t *testing.T) {
	cfg := testConfig(1, 1)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginTrial(rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	r, err := a.Resistance()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r, 1) {
		t.Errorf("fully failed array R = %g, want +Inf", r)
	}
	failed, err := a.Failed()
	if err != nil || !failed {
		t.Errorf("Failed() = %v, %v, want true", failed, err)
	}
}

func TestCharacterizeProducesLogNormalFit(t *testing.T) {
	cfg := testConfig(2, 4)
	res, err := Characterize(cfg, 200, 11, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 190 {
		t.Errorf("finite samples = %d/200", len(res.Samples))
	}
	if res.Model.Dist.Sigma <= 0 {
		t.Error("degenerate lognormal fit")
	}
	// KS distance between the empirical samples and the fit must be small
	// (the paper's justification for the lognormal handoff).
	e, err := stat.NewECDF(res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.KSDistance(res.Model.Dist.CDF); d > 0.12 {
		t.Errorf("KS distance of lognormal fit = %g", d)
	}
}

func TestCriterionMonotone(t *testing.T) {
	// The k-th failure time grows with k: median TTF under n_F=1 <
	// n_F=half < n_F=all.
	cfg := testConfig(2, 4)
	res, err := Characterize(cfg, 300, 13, "")
	if err != nil {
		t.Fatal(err)
	}
	med := func(k int) float64 {
		s := res.CriterionSamples(k)
		e, err := stat.NewECDF(s)
		if err != nil {
			t.Fatalf("criterion %d: %v", k, err)
		}
		return e.Percentile(0.5)
	}
	m1, m2, m4 := med(1), med(2), med(4)
	if !(m1 < m2 && m2 < m4) {
		t.Errorf("criterion medians not increasing: %g, %g, %g", m1, m2, m4)
	}
	// An alternative criterion's samples fit a lognormal, and a model
	// re-targets with 1/I².
	if _, err := stat.FitLogNormal(res.CriterionSamples(2)); err != nil {
		t.Errorf("n_F=2 fit: %v", err)
	}
	if s := res.Model.Scale(res.Model.RefCurrent / 2); math.Abs(s-4) > 1e-12 {
		t.Errorf("half current scale = %g, want 4", s)
	}
	if !math.IsInf(res.Model.Scale(0), 1) {
		t.Error("zero current scale not +Inf")
	}
	if got := res.CriterionSamples(99); len(got) != 0 {
		t.Errorf("impossible criterion n_F=99 has %d samples", len(got))
	}
}

// gradedSigma mimics the FEA stress maps: perimeter vias at the outer value,
// interior vias relaxing toward the inner value over two rings.
func gradedSigma(n int, perimeter, inner float64) [][]float64 {
	s := make([][]float64, n)
	for r := range s {
		s[r] = make([]float64, n)
		for c := range s[r] {
			ring := r
			if c < ring {
				ring = c
			}
			if v := n - 1 - r; v < ring {
				ring = v
			}
			if v := n - 1 - c; v < ring {
				ring = v
			}
			f := float64(ring) / 2
			if f > 1 {
				f = 1
			}
			s[r][c] = perimeter + (inner-perimeter)*f
		}
	}
	return s
}

func TestRedundancyOrdering(t *testing.T) {
	// Paper Fig 9: median/worst-case TTF of 1×1 < 4×4 < 8×8 under the
	// open-circuit criterion. As the paper notes, the redundancy benefit is
	// "magnified by the reduction in thermomechanical stress as we go from
	// 1×1 to 8×8": with uniform per-via stress the weakest-of-n² statistics
	// plus current-redistribution acceleration would cancel the redundancy
	// gain, so the graded FEA stress maps are essential input here.
	sigma := map[int][][]float64{
		1: {{260e6}},
		4: gradedSigma(4, 250e6, 222e6),
		8: gradedSigma(8, 250e6, 208e6),
	}
	meds := map[int]float64{}
	worst := map[int]float64{}
	for _, n := range []int{1, 4, 8} {
		cfg := testConfig(n, n*n)
		cfg.SigmaT = sigma[n]
		res, err := Characterize(cfg, 300, 17, "")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		e, err := stat.NewECDF(res.Samples)
		if err != nil {
			t.Fatal(err)
		}
		meds[n] = e.Percentile(0.5)
		worst[n] = e.Percentile(0.003)
	}
	t.Logf("median TTF (years): 1×1=%.2f 4×4=%.2f 8×8=%.2f",
		phys.SecondsToYears(meds[1]), phys.SecondsToYears(meds[4]), phys.SecondsToYears(meds[8]))
	t.Logf("0.3%%ile TTF (years): 1×1=%.2f 4×4=%.2f 8×8=%.2f",
		phys.SecondsToYears(worst[1]), phys.SecondsToYears(worst[4]), phys.SecondsToYears(worst[8]))
	if !(meds[1] < meds[4] && meds[4] < meds[8]) {
		t.Errorf("median redundancy ordering violated: %v", meds)
	}
	if !(worst[1] < worst[4] && worst[4] < worst[8]) {
		t.Errorf("worst-case redundancy ordering violated: %v", worst)
	}
}

func TestRelaxedCriterionExtendsTTF(t *testing.T) {
	// Fig 9's second axis: for the same 4×4 array, the R=∞ criterion
	// (all 16 vias) gives a longer TTF than R=2× (8 vias).
	cfg := testConfig(4, 16)
	cfg.SigmaT = gradedSigma(4, 250e6, 222e6)
	res, err := Characterize(cfg, 300, 23, "")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := stat.NewECDF(res.CriterionSamples(8))
	if err != nil {
		t.Fatal(err)
	}
	eInf, err := stat.NewECDF(res.CriterionSamples(16))
	if err != nil {
		t.Fatal(err)
	}
	if !(e2.Percentile(0.5) < eInf.Percentile(0.5)) {
		t.Errorf("R=2× median %g not below R=∞ median %g", e2.Percentile(0.5), eInf.Percentile(0.5))
	}
	if !(e2.Percentile(0.003) < eInf.Percentile(0.003)) {
		t.Errorf("R=2× worst case not below R=∞ worst case")
	}
}

func TestFromStructure(t *testing.T) {
	p := cudd.DefaultParams()
	sig := uniformSigma(4, 230e6)
	cfg, err := FromStructure(p, sig, emdist.Default(), 1e10, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("derived config invalid: %v", err)
	}
	if cfg.N != 4 || cfg.FailK != 16 {
		t.Errorf("derived N=%d FailK=%d", cfg.N, cfg.FailK)
	}
	if cfg.RVia <= 0 || cfg.RSegBottom <= 0 || cfg.RSegTop <= 0 {
		t.Error("derived resistances not positive")
	}
	// Nominal array resistance is independent of n (same total via area):
	// compare 4×4 and 8×8 within a tolerance that allows wire-segment
	// spreading differences.
	p8 := p
	p8.ArrayN = 8
	cfg8, err := FromStructure(p8, uniformSigma(8, 230e6), emdist.Default(), 1e10, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := cfg.NominalResistance()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := cfg8.NominalResistance()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r4-r8)/r4 > 0.5 {
		t.Errorf("nominal resistance differs wildly between configs: %g vs %g", r4, r8)
	}
	// Invalid base params are rejected.
	bad := p
	bad.ArrayN = 0
	if _, err := FromStructure(bad, sig, emdist.Default(), 1e10, 1, 0); err == nil {
		t.Error("accepted invalid structure params")
	}
}

func TestReferenceYearsSane(t *testing.T) {
	cfg := testConfig(4, 16)
	y := cfg.ReferenceYears()
	if y < 0.5 || y > 100 {
		t.Errorf("reference median TTF = %g years, implausible", y)
	}
}

func TestModelSetSaveLoadRoundTrip(t *testing.T) {
	mk := func(med float64) TTFModel {
		return TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(med), Sigma: 0.2},
			RefCurrent: 0.01,
			FailK:      16,
		}
	}
	set := ModelSet{
		ArrayN: 4,
		FailK:  16,
		Models: map[cudd.Pattern]TTFModel{
			cudd.Plus:   mk(1e8),
			cudd.TShape: mk(1.2e8),
			cudd.LShape: mk(1.5e8),
		},
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModelSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ArrayN != 4 || back.FailK != 16 {
		t.Errorf("round trip header: %+v", back)
	}
	for _, pat := range cudd.Patterns() {
		a, b := set.Models[pat], back.Models[pat]
		if a.Dist != b.Dist || a.RefCurrent != b.RefCurrent || a.FailK != b.FailK {
			t.Errorf("%v model changed: %+v vs %+v", pat, a, b)
		}
	}
}

func TestModelSetValidate(t *testing.T) {
	var buf bytes.Buffer
	bad := ModelSet{ArrayN: 0}
	if err := bad.Save(&buf); err == nil {
		t.Error("saved invalid set")
	}
	missing := ModelSet{ArrayN: 4, FailK: 8, Models: map[cudd.Pattern]TTFModel{}}
	if err := missing.Validate(); err == nil {
		t.Error("accepted missing patterns")
	}
	if _, err := LoadModelSet(bytes.NewBufferString("junk")); err == nil {
		t.Error("loaded junk")
	}
	if _, err := LoadModelSet(bytes.NewBufferString(`{"array_n":2,"fail_k":99}`)); err == nil {
		t.Error("loaded out-of-range criterion")
	}
}

// TestLoadModelSetRejectsMalformedPatterns: a pattern id other than
// Plus/T/L, or a pattern listed twice, fails the load and names the pattern
// instead of loading an extra model or replacing the first entry.
func TestLoadModelSetRejectsMalformedPatterns(t *testing.T) {
	const (
		plus  = `{"pattern":0,"mu_ln_seconds":19,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":16}`
		tee   = `{"pattern":1,"mu_ln_seconds":19,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":16}`
		ell   = `{"pattern":2,"mu_ln_seconds":19,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":16}`
		seven = `{"pattern":7,"mu_ln_seconds":19,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":16}`
		plus5 = `{"pattern":0,"mu_ln_seconds":5,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":16}`
	)
	set := func(models ...string) string {
		return `{"array_n":4,"fail_k":16,"models":[` + strings.Join(models, ",") + `]}`
	}
	if _, err := LoadModelSet(strings.NewReader(set(plus, tee, ell))); err != nil {
		t.Fatalf("well-formed set: %v", err)
	}
	for _, c := range []struct {
		name, json, want string
	}{
		{"unknown id", set(plus, tee, ell, seven), "pattern 7"},
		{"repeated Plus", set(plus, tee, ell, plus5), "Plus-shaped"},
	} {
		m, err := LoadModelSet(strings.NewReader(c.json))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: loaded %d models, err %v; want an error naming %q", c.name, len(m.Models), err, c.want)
		}
	}
}

// FuzzLoadModelSet drives arbitrary bytes through the model-set decoder
// that analyze -models and hotspots read. The invariants: no panic, and
// every set it accepts passes Validate and survives Save and a second load
// with the same bits in every field.
func FuzzLoadModelSet(f *testing.F) {
	f.Add([]byte(`{"array_n":2,"fail_k":4,"models":[` +
		`{"pattern":0,"mu_ln_seconds":19.5,"sigma_ln":0.2,"ref_current_a":0.01,"fail_k":4},` +
		`{"pattern":1,"mu_ln_seconds":20,"sigma_ln":0.3,"ref_current_a":0.01,"fail_k":4},` +
		`{"pattern":2,"mu_ln_seconds":21,"sigma_ln":-0,"ref_current_a":1e-300,"fail_k":4}]}`))
	f.Add([]byte(`{"array_n":1,"fail_k":1,"models":[{"pattern":7},{"pattern":0},{"pattern":0}]}`))
	f.Add([]byte(`{"array_n":2,"fail_k":99}`))
	f.Add([]byte(`{"array_n":1e999}`))
	f.Add([]byte(`junk`))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := LoadModelSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("loaded set fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := set.Save(&buf); err != nil {
			t.Fatalf("loaded set fails Save: %v", err)
		}
		back, err := LoadModelSet(&buf)
		if err != nil {
			t.Fatalf("saved set fails to load: %v\n%s", err, buf.Bytes())
		}
		if back.ArrayN != set.ArrayN || back.FailK != set.FailK || len(back.Models) != len(set.Models) {
			t.Fatalf("header changed: %+v vs %+v", back, set)
		}
		for pat, a := range set.Models {
			b := back.Models[pat]
			if math.Float64bits(a.Dist.Mu) != math.Float64bits(b.Dist.Mu) ||
				math.Float64bits(a.Dist.Sigma) != math.Float64bits(b.Dist.Sigma) ||
				math.Float64bits(a.RefCurrent) != math.Float64bits(b.RefCurrent) ||
				a.FailK != b.FailK {
				t.Fatalf("%v model changed: %+v vs %+v", pat, a, b)
			}
		}
	})
}

// TestNetworkProperties: current conservation and linearity hold for random
// alive patterns of the via network.
func TestNetworkProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		cfg := testConfig(n, n*n)
		a, err := New(cfg)
		if err != nil {
			return false
		}
		if err := a.BeginTrial(rng); err != nil {
			return false
		}
		// Kill a random subset (never all).
		kills := rng.Intn(n*n - 1)
		for k := 0; k < kills; k++ {
			// pick a random alive via
			var alive []int
			for i, al := range a.alive {
				if al {
					alive = append(alive, i)
				}
			}
			if len(alive) <= 1 {
				break
			}
			if err := a.Fail(alive[rng.Intn(len(alive))]); err != nil {
				return false
			}
		}
		// Conservation: total surviving current equals the feed.
		aVia := cfg.ViaArea / float64(n*n)
		total := 0.0
		for i := range a.jNow {
			total += a.jNow[i] * aVia
		}
		want := cfg.CurrentDensity * cfg.ViaArea
		return math.Abs(total-want)/want < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestResistanceMonotoneUnderFailures: every failure strictly increases the
// array resistance.
func TestResistanceMonotoneUnderFailures(t *testing.T) {
	cfg := testConfig(3, 9)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := a.BeginTrial(rng); err != nil {
		t.Fatal(err)
	}
	prev, err := a.Resistance()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := a.Fail(i); err != nil {
			t.Fatal(err)
		}
		r, err := a.Resistance()
		if err != nil {
			t.Fatal(err)
		}
		if r <= prev {
			t.Fatalf("resistance not increasing after failure %d: %g ≤ %g", i, r, prev)
		}
		prev = r
	}
}

// TestNFCriterionCDFsOrdered pins the ordering behind Fig. 8(a): run to
// completion on a 4×4 array, every trial's failure times are non-decreasing,
// so at every sample point the CDF of the (k+1)-th failure time sits at or
// below the CDF of the k-th, for every n_F criterion k.
func TestNFCriterionCDFsOrdered(t *testing.T) {
	cfg := testConfig(4, 8)
	cfg.SigmaT = gradedSigma(4, 260e6, 200e6)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Run(a, mc.Options{Trials: 200, Seed: 21, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	const vias = 16
	var points []float64
	for i, ev := range res.Events {
		if len(ev) != vias {
			t.Fatalf("trial %d failed %d of %d vias", i, len(ev), vias)
		}
		for j := 1; j < len(ev); j++ {
			if ev[j] < ev[j-1] {
				t.Fatalf("trial %d: failure %d at %g precedes failure %d at %g", i, j+1, ev[j], j, ev[j-1])
			}
		}
		points = append(points, ev...)
	}
	cdfs := make([]*stat.ECDF, vias+1)
	for k := 1; k <= vias; k++ {
		if cdfs[k], err = stat.NewECDF(res.KthFailureTimes(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k < vias; k++ {
		for _, x := range points {
			if lo, hi := cdfs[k+1].At(x), cdfs[k].At(x); lo > hi {
				t.Fatalf("n_F=%d CDF %g exceeds n_F=%d CDF %g at t=%g", k+1, lo, k, hi, x)
			}
		}
	}
}
