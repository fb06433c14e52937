package mc

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fixedSystem fails its components at predetermined times, with optional
// acceleration after each failure and a criterion of k failures.
type fixedSystem struct {
	ttfs      []float64
	critK     int
	accelMult float64 // aging-rate multiplier applied to survivors per failure

	failedCount int
	rates       []float64
	failErr     error
}

func (s *fixedSystem) NumComponents() int { return len(s.ttfs) }

func (s *fixedSystem) BeginTrial(rng *rand.Rand) error {
	s.failedCount = 0
	s.rates = make([]float64, len(s.ttfs))
	for i := range s.rates {
		s.rates[i] = 1
	}
	return nil
}

func (s *fixedSystem) BaseTTF(i int) float64   { return s.ttfs[i] }
func (s *fixedSystem) AgingRate(i int) float64 { return s.rates[i] }

func (s *fixedSystem) Fail(i int) error {
	if s.failErr != nil {
		return s.failErr
	}
	s.failedCount++
	if s.accelMult > 0 {
		for j := range s.rates {
			s.rates[j] *= s.accelMult
		}
	}
	return nil
}

func (s *fixedSystem) Failed() (bool, error) {
	return s.failedCount >= s.critK, nil
}

func TestRunOrdersFailuresByTTF(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{30, 10, 20}, critK: 3}
	res, err := Run(sys, Options{Trials: 1, Seed: 1, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30}
	if len(res.Events[0]) != 3 {
		t.Fatalf("events = %v", res.Events[0])
	}
	for i, w := range want {
		if math.Abs(res.Events[0][i]-w) > 1e-12 {
			t.Errorf("event %d at %g, want %g", i, res.Events[0][i], w)
		}
	}
	if res.TTF[0] != 30 {
		t.Errorf("system TTF = %g, want 30 (criterion: all 3)", res.TTF[0])
	}
}

func TestRunStopsAtCriterion(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{30, 10, 20}, critK: 2}
	res, err := Run(sys, Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTF[0] != 20 {
		t.Errorf("system TTF = %g, want 20 (second failure)", res.TTF[0])
	}
	if len(res.Events[0]) != 2 {
		t.Errorf("recorded %d events without RunToCompletion, want 2", len(res.Events[0]))
	}
}

func TestRunToCompletionRecordsAllEvents(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{30, 10, 20}, critK: 1}
	res, err := Run(sys, Options{Trials: 1, Seed: 1, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTF[0] != 10 {
		t.Errorf("system TTF = %g, want 10", res.TTF[0])
	}
	if len(res.Events[0]) != 3 {
		t.Errorf("events = %v, want all 3", res.Events[0])
	}
}

func TestAccelerationShortensLaterFailures(t *testing.T) {
	// Two components with TTF 10 and 20. After the first failure survivors
	// age at 2×: the second fails at t = 10 + (20−10)/2 = 15.
	sys := &fixedSystem{ttfs: []float64{10, 20}, critK: 2, accelMult: 2}
	res, err := Run(sys, Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TTF[0]-15) > 1e-12 {
		t.Errorf("accelerated second failure at %g, want 15", res.TTF[0])
	}
}

func TestZeroTTFFailsImmediately(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{0, 5}, critK: 1}
	res, err := Run(sys, Options{Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTF[0] != 0 {
		t.Errorf("TTF = %g, want 0", res.TTF[0])
	}
}

func TestInfiniteTTFNeverFails(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{math.Inf(1), math.Inf(1)}, critK: 1}
	res, err := Run(sys, Options{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ttf := range res.TTF {
		if !math.IsInf(ttf, 1) {
			t.Errorf("TTF = %g, want +Inf", ttf)
		}
	}
	if got := res.FiniteTTF(); len(got) != 0 {
		t.Errorf("FiniteTTF = %v, want empty", got)
	}
}

func TestMixedInfiniteStopsEarly(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{5, math.Inf(1)}, critK: 2}
	res, err := Run(sys, Options{Trials: 1, Seed: 1, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.TTF[0], 1) {
		t.Errorf("TTF = %g, want +Inf (second component immortal)", res.TTF[0])
	}
	if len(res.Events[0]) != 1 {
		t.Errorf("events = %v, want exactly the one mortal failure", res.Events[0])
	}
}

func TestKthFailureTimes(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{30, 10, 20}, critK: 1}
	res, err := Run(sys, Options{Trials: 3, Seed: 9, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	second := res.KthFailureTimes(2)
	if len(second) != 3 {
		t.Fatalf("KthFailureTimes(2) len = %d", len(second))
	}
	for _, v := range second {
		if v != 20 {
			t.Errorf("2nd failure at %g, want 20", v)
		}
	}
	if got := res.KthFailureTimes(4); len(got) != 0 {
		t.Errorf("KthFailureTimes(4) = %v, want empty", got)
	}
	if got := res.KthFailureTimes(0); len(got) != 0 {
		t.Errorf("KthFailureTimes(0) = %v, want empty", got)
	}
}

func TestRunValidation(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{1}, critK: 1}
	if _, err := Run(sys, Options{Trials: 0}); err == nil {
		t.Error("accepted zero trials")
	}
	if _, err := RunParallel(func() (System, error) { return sys, nil }, Options{Trials: 0}); err == nil {
		t.Error("parallel accepted zero trials")
	}
}

func TestFailErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	sys := &fixedSystem{ttfs: []float64{1}, critK: 1, failErr: boom}
	if _, err := Run(sys, Options{Trials: 1}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

// randomSystem samples TTFs to exercise the stochastic path.
type randomSystem struct {
	n     int
	critK int
	ttfs  []float64
}

func (s *randomSystem) NumComponents() int { return s.n }
func (s *randomSystem) BeginTrial(rng *rand.Rand) error {
	s.ttfs = make([]float64, s.n)
	for i := range s.ttfs {
		s.ttfs[i] = math.Exp(rng.NormFloat64())
	}
	return nil
}
func (s *randomSystem) BaseTTF(i int) float64   { return s.ttfs[i] }
func (s *randomSystem) AgingRate(i int) float64 { return 1 }
func (s *randomSystem) Fail(i int) error        { return nil }
func (s *randomSystem) Failed() (bool, error) {
	count := 0
	for _, t := range s.ttfs {
		_ = t
		count++
	}
	return true, nil // weakest link
}

func TestParallelMatchesSerial(t *testing.T) {
	opt := Options{Trials: 64, Seed: 123, RunToCompletion: true}
	serial, err := Run(&randomSystem{n: 8, critK: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunParallel(func() (System, error) {
		return &randomSystem{n: 8, critK: 1}, nil
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.TTF {
		if serial.TTF[i] != parallel.TTF[i] {
			t.Fatalf("trial %d: serial %g != parallel %g", i, serial.TTF[i], parallel.TTF[i])
		}
		if len(serial.Events[i]) != len(parallel.Events[i]) {
			t.Fatalf("trial %d: event count differs", i)
		}
	}
}

func TestParallelFactoryErrorPropagates(t *testing.T) {
	boom := errors.New("factory boom")
	_, err := RunParallel(func() (System, error) { return nil, boom }, Options{Trials: 4, Seed: 1})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want factory boom", err)
	}
}

func TestWeakestLinkDistribution(t *testing.T) {
	// With criterion = first failure, the system TTF is the minimum of the
	// component TTFs; statistically its median must sit well below the
	// component median exp(0)=1 for n=8: P(min > m) = (1-Φ)^8 = 0.5 →
	// median at Φ⁻¹(1−0.5^{1/8}) ≈ Φ⁻¹(0.083) ≈ −1.38σ → exp(−1.38)≈0.25.
	sys := &randomSystem{n: 8, critK: 1}
	res, err := Run(sys, Options{Trials: 4000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ttfs := append([]float64(nil), res.TTF...)
	sort.Float64s(ttfs)
	med := ttfs[len(ttfs)/2]
	if med < 0.18 || med > 0.34 {
		t.Errorf("weakest-link median = %g, want ≈ 0.25", med)
	}
}

func TestTrialSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := trialSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate trial seed at %d", i)
		}
		seen[s] = true
	}
}

func TestEventCompsAndCriticality(t *testing.T) {
	sys := &fixedSystem{ttfs: []float64{30, 10, 20}, critK: 3}
	res, err := Run(sys, Options{Trials: 5, Seed: 2, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}
	for tr := range res.EventComps {
		want := []int{1, 2, 0} // TTF order: 10 (idx 1), 20 (idx 2), 30 (idx 0)
		if len(res.EventComps[tr]) != 3 {
			t.Fatalf("trial %d: comps = %v", tr, res.EventComps[tr])
		}
		for i, w := range want {
			if res.EventComps[tr][i] != w {
				t.Fatalf("trial %d: comps = %v, want %v", tr, res.EventComps[tr], want)
			}
		}
	}
	first := res.FirstFailureCounts(3)
	if first[1] != 5 || first[0] != 0 || first[2] != 0 {
		t.Errorf("FirstFailureCounts = %v", first)
	}
	inv := res.FailureInvolvement(3)
	for i, c := range inv {
		if c != 5 {
			t.Errorf("involvement[%d] = %d, want 5", i, c)
		}
	}
}

// countingSystem counts the engine's calls per component. It requires, at
// every Fail, one AgingRate call since the previous failure for each live
// candidate and none for any other component, and at each trial's end one
// BaseTTF call per candidate and none for any other component.
type countingSystem struct {
	t         *testing.T
	mask      []bool // nil: every component is a candidate
	ttfs      []float64
	alive     []bool
	failed    int
	baseCalls []int // since BeginTrial
	rateCalls []int // since the previous Fail or BeginTrial
	trials    int
	fails     int
}

func newCountingSystem(t *testing.T, n int, mask []bool) *countingSystem {
	return &countingSystem{t: t, mask: mask, ttfs: make([]float64, n), alive: make([]bool, n),
		baseCalls: make([]int, n), rateCalls: make([]int, n)}
}

func (s *countingSystem) candidate(i int) bool { return s.mask == nil || s.mask[i] }

func (s *countingSystem) NumComponents() int { return len(s.ttfs) }

func (s *countingSystem) BeginTrial(rng *rand.Rand) error {
	s.endTrial()
	s.trials++
	s.failed = 0
	for i := range s.ttfs {
		s.ttfs[i] = rng.ExpFloat64() * 1e7
		s.alive[i] = true
		s.baseCalls[i], s.rateCalls[i] = 0, 0
	}
	return nil
}

func (s *countingSystem) BaseTTF(i int) float64 {
	s.baseCalls[i]++
	return s.ttfs[i]
}

func (s *countingSystem) AgingRate(i int) float64 {
	s.rateCalls[i]++
	return 1 + float64(s.failed)
}

func (s *countingSystem) Fail(k int) error {
	s.t.Helper()
	for i, c := range s.rateCalls {
		if want := btoi(s.candidate(i) && s.alive[i]); c != want {
			s.t.Fatalf("failure %d: %d AgingRate(%d) calls since the previous failure, want %d", s.failed+1, c, i, want)
		}
		s.rateCalls[i] = 0
	}
	s.alive[k] = false
	s.failed++
	s.fails++
	return nil
}

func (s *countingSystem) Failed() (bool, error) { return s.failed >= 3, nil }

// endTrial checks the BaseTTF calls of the trial that just ran and that no
// scan ran after its last failure.
func (s *countingSystem) endTrial() {
	s.t.Helper()
	if s.trials == 0 {
		return
	}
	for i := range s.ttfs {
		if want := btoi(s.candidate(i)); s.baseCalls[i] != want {
			s.t.Fatalf("%d BaseTTF(%d) calls in a trial, want %d", s.baseCalls[i], i, want)
		}
		if s.rateCalls[i] != 0 {
			s.t.Fatalf("%d AgingRate(%d) calls after a trial's last failure", s.rateCalls[i], i)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestEngineCallBudget pins what a failure costs the engine's scan: one
// AgingRate call per live candidate, and one BaseTTF call per candidate per
// trial, with and without a candidate mask, run to completion or stopped at
// the criterion.
func TestEngineCallBudget(t *testing.T) {
	mask := []bool{true, false, true, true, false, true, true, false, true, true}
	for _, c := range []struct {
		name         string
		mask         []bool
		toCompletion bool
	}{
		{"unmasked", nil, false},
		{"unmasked-to-completion", nil, true},
		{"masked", mask, false},
		{"masked-to-completion", mask, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := newCountingSystem(t, len(mask), c.mask)
			const trials = 6
			res, err := Run(sys, Options{Trials: trials, Seed: 3, RunToCompletion: c.toCompletion, Candidates: c.mask})
			if err != nil {
				t.Fatal(err)
			}
			sys.endTrial()
			events := 0
			for _, e := range res.EventComps {
				events += len(e)
			}
			if sys.trials != trials || sys.fails != events || events < 3*trials {
				t.Fatalf("%d trials and %d Fail calls for %d recorded failures, want %d trials", sys.trials, sys.fails, events, trials)
			}
		})
	}
}
