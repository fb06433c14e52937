package mc

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"emvia/internal/telemetry"
)

// runBoth runs opt serially and at the given worker counts over fresh
// randomSystems of n components, returning the results labelled by entry
// point.
func runBoth(t *testing.T, n int, opt Options, workers ...int) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	res, err := Run(&randomSystem{n: n, critK: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	out["Run"] = res
	for _, w := range workers {
		opt.Workers = w
		res, err := RunParallel(func() (System, error) { return &randomSystem{n: n, critK: 1}, nil }, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("RunParallel/workers=%d", w)] = res
	}
	return out
}

// sameBits fails unless a and b agree bit for bit in every TTF, event time
// and event component.
func sameBits(t *testing.T, name string, got, want *Result) {
	t.Helper()
	for i := range want.TTF {
		if math.Float64bits(got.TTF[i]) != math.Float64bits(want.TTF[i]) {
			t.Fatalf("%s trial %d: TTF %v, unmasked %v", name, i, got.TTF[i], want.TTF[i])
		}
		if !slices.Equal(got.EventComps[i], want.EventComps[i]) || len(got.Events[i]) != len(want.Events[i]) {
			t.Fatalf("%s trial %d: failures %v, unmasked %v", name, i, got.EventComps[i], want.EventComps[i])
		}
		for j, e := range want.Events[i] {
			if math.Float64bits(got.Events[i][j]) != math.Float64bits(e) {
				t.Fatalf("%s trial %d failure %d: time %v, unmasked %v", name, i, j, got.Events[i][j], e)
			}
		}
	}
}

// TestAllTrueMaskMatchesUnmasked pins that the candidate scan serves both
// modes: a mask that keeps every component reproduces the unmasked run bit
// for bit, serially and in parallel, on a system that does not implement
// CandidateMasker (so its sampling stream is the same in both runs).
func TestAllTrueMaskMatchesUnmasked(t *testing.T) {
	const n = 9
	opt := Options{Trials: 41, Seed: 17, RunToCompletion: true}
	want, err := Run(&randomSystem{n: n, critK: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Candidates = make([]bool, n)
	for i := range opt.Candidates {
		opt.Candidates[i] = true
	}
	for name, got := range runBoth(t, n, opt, 1, 3) {
		sameBits(t, name, got, want)
	}
}

// TestPartialMaskNeverFailsMaskedOut checks that a partial mask confines
// every failure to the candidates, and that run to completion each trial
// fails every candidate exactly once.
func TestPartialMaskNeverFailsMaskedOut(t *testing.T) {
	mask := []bool{false, true, true, false, true, false, false, true, true}
	opt := Options{Trials: 41, Seed: 17, RunToCompletion: true, Candidates: mask}
	for name, res := range runBoth(t, len(mask), opt, 1, 3) {
		if miss := res.MaskMisses(mask); len(miss) > 0 {
			t.Fatalf("%s: masked-out components %v failed", name, miss)
		}
		for i, comps := range res.EventComps {
			sorted := slices.Clone(comps)
			slices.Sort(sorted)
			if !slices.Equal(sorted, []int{1, 2, 4, 7, 8}) {
				t.Fatalf("%s trial %d: failed %v, want each candidate once", name, i, comps)
			}
		}
	}
}

// TestRejectedMaskLeavesCountersAlone checks that a mask of the wrong length
// is an error that records no candidate/pruned split, while an accepted
// mask records it once per run whatever the worker count.
func TestRejectedMaskLeavesCountersAlone(t *testing.T) {
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	for _, workers := range []int{0, 1, 3} {
		reg := telemetry.New()
		telemetry.SetDefault(reg)
		run := func(mask []bool) error {
			opt := Options{Trials: 40, Seed: 3, Candidates: mask, Workers: workers}
			if workers == 0 {
				_, err := Run(&randomSystem{n: 6, critK: 1}, opt)
				return err
			}
			_, err := RunParallel(func() (System, error) { return &randomSystem{n: 6, critK: 1}, nil }, opt)
			return err
		}
		counts := func() (int64, int64) {
			return reg.Counter(telemetry.MCCandidateComponents).Value(), reg.Counter(telemetry.MCPrunedComponents).Value()
		}
		err := run([]bool{true, false, true})
		if err == nil || !strings.Contains(err.Error(), "Candidates has 3 entries for 6 components") {
			t.Fatalf("workers=%d: wrong-length mask gave error %v", workers, err)
		}
		if c, p := counts(); c != 0 || p != 0 {
			t.Fatalf("workers=%d: rejected run moved the counters to candidates %d, pruned %d", workers, c, p)
		}
		if err := run([]bool{true, false, true, true, false, false}); err != nil {
			t.Fatal(err)
		}
		if c, p := counts(); c != 3 || p != 3 {
			t.Fatalf("workers=%d: accepted run recorded candidates %d, pruned %d, want 3 and 3", workers, c, p)
		}
	}
}
