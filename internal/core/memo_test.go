package core

import (
	"math"
	"sync"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/phys"
)

// memoInputs are one-at-a-time changes to inputs a stress solve or a
// via-array characterization depends on.
var memoInputs = []struct {
	name string
	set  func(a *Analyzer)
}{
	{"Base.AnnealT x1.1", func(a *Analyzer) { a.Base.AnnealT *= 1.1 }},
	{"Base.ViaSpacing 0.8um", func(a *Analyzer) { a.Base.ViaSpacing = 0.8 * phys.Micron }},
	{"EM.D0 x2", func(a *Analyzer) { a.EM.D0 *= 2 }},
	{"FEA.Tol 1e-3", func(a *Analyzer) { a.FEA.Tol = 1e-3 }},
	{"PackageStress +20 MPa", func(a *Analyzer) { a.PackageStress += 20e6 }},
}

// memoResult is what one analyzer state gives for the 2×2 Plus array.
type memoResult struct {
	sigma   [][]float64
	samples []float64
	median  float64
}

func memoRun(a *Analyzer) (memoResult, error) {
	sigma, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, a.Base.WireWidth)
	if err != nil {
		return memoResult{}, err
	}
	c, err := a.CharacterizeViaArray(cudd.Plus, 2, a.Base.WireWidth, 1e10, ArrayOpenCircuit(), 30, 5)
	if err != nil {
		return memoResult{}, err
	}
	return memoResult{sigma: sigma, samples: c.Result.Samples, median: c.Model.Dist.Median()}, nil
}

func mustRun(t *testing.T, a *Analyzer) memoResult {
	t.Helper()
	r, err := memoRun(a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diff names the first part of got that is not bit-identical to want.
func (want memoResult) diff(got memoResult) string {
	if len(got.sigma) != len(want.sigma) {
		return "stress shape"
	}
	for i := range want.sigma {
		if !sameBits(got.sigma[i], want.sigma[i]) {
			return "stress"
		}
	}
	if !sameBits(got.samples, want.samples) {
		return "TTF samples"
	}
	if math.Float64bits(got.median) != math.Float64bits(want.median) {
		return "model median"
	}
	return ""
}

// freshResults runs every memoInputs change on its own fresh analyzer.
func freshResults(t *testing.T) []memoResult {
	out := make([]memoResult, len(memoInputs))
	for i, in := range memoInputs {
		f := fastAnalyzer()
		in.set(f)
		out[i] = mustRun(t, f)
	}
	return out
}

// TestMemoKeysEveryInput changes one input at a time on an analyzer that
// has already characterized the array: each answer must be the one a fresh
// analyzer gives, bit for bit, and must differ from the unchanged one (or
// the change would test nothing).
func TestMemoKeysEveryInput(t *testing.T) {
	fresh := freshResults(t)
	a := fastAnalyzer()
	base := mustRun(t, a)
	for i, in := range memoInputs {
		b0, em0, fea0, pkg0 := a.Base, a.EM, a.FEA, a.PackageStress
		in.set(a)
		got := mustRun(t, a)
		a.Base, a.EM, a.FEA, a.PackageStress = b0, em0, fea0, pkg0
		if d := fresh[i].diff(got); d != "" {
			t.Errorf("%s: %s not bit-identical to a fresh analyzer's", in.name, d)
		}
		if base.diff(fresh[i]) == "" {
			t.Errorf("%s: changes nothing", in.name)
		}
	}
	if d := base.diff(mustRun(t, a)); d != "" {
		t.Errorf("restored analyzer: %s not bit-identical to its first answer", d)
	}
}

// TestMemoSharedByConcurrentCopies runs copies of one analyzer, each with a
// different input changed, concurrently over the memo they share: every
// copy must agree with the serial fresh-analyzer answer, and the original
// must still give its own.
func TestMemoSharedByConcurrentCopies(t *testing.T) {
	fresh := freshResults(t)
	a := fastAnalyzer()
	base := mustRun(t, a)
	got := make([]memoResult, len(memoInputs))
	errs := make([]error, len(memoInputs))
	var wg sync.WaitGroup
	for i, in := range memoInputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := *a
			in.set(&b)
			got[i], errs[i] = memoRun(&b)
		}(i)
	}
	wg.Wait()
	for i, in := range memoInputs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", in.name, errs[i])
		}
		if d := fresh[i].diff(got[i]); d != "" {
			t.Errorf("%s: %s not bit-identical to the serial run's", in.name, d)
		}
	}
	if d := base.diff(mustRun(t, a)); d != "" {
		t.Errorf("original analyzer: %s changed after its copies ran", d)
	}
}
