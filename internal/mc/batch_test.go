package mc

import (
	"math"
	"sync"
	"testing"
)

// preparerSystem wraps randomSystem with a TrialPreparer that records every
// group of seeds it is handed. It never touches the trial RNG, so its trial
// results are identical to the plain randomSystem's.
type preparerSystem struct {
	randomSystem

	mu     sync.Mutex
	groups [][]int64
}

func (s *preparerSystem) PrepareTrials(seeds []int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups = append(s.groups, append([]int64(nil), seeds...))
	return nil
}

func TestBatchGroupingAnnouncesEveryTrial(t *testing.T) {
	sys := &preparerSystem{randomSystem: randomSystem{n: 4, critK: 1}}
	opt := Options{Trials: 37, Seed: 99}
	if _, err := Run(sys, opt); err != nil {
		t.Fatal(err)
	}
	want := []int{16, 16, 5}
	if len(sys.groups) != len(want) {
		t.Fatalf("PrepareTrials called %d times, want %d groups for 37 trials of 16", len(sys.groups), len(want))
	}
	trial := 0
	for gi, g := range sys.groups {
		if len(g) != want[gi] {
			t.Fatalf("group %d has %d seeds, want %d", gi, len(g), want[gi])
		}
		for _, sd := range g {
			if sd != trialSeed(opt.Seed, trial) {
				t.Fatalf("group %d announced seed %d for trial %d, want %d", gi, sd, trial, trialSeed(opt.Seed, trial))
			}
			trial++
		}
	}
	if trial != opt.Trials {
		t.Fatalf("groups announced %d trials, want %d", trial, opt.Trials)
	}
}

func TestBatchParallelMatchesSerial(t *testing.T) {
	// Group dispatch must not perturb results: a system without a preparer,
	// and grouped serial and parallel runs of a preparer system, agree
	// bitwise for any worker count.
	opt := Options{Trials: 37, Seed: 5, RunToCompletion: true}
	base, err := Run(&randomSystem{n: 6, critK: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3} {
		opt.Workers = workers
		var got *Result
		if workers == 0 {
			got, err = Run(&preparerSystem{randomSystem: randomSystem{n: 6, critK: 1}}, opt)
		} else {
			got, err = RunParallel(func() (System, error) {
				return &preparerSystem{randomSystem: randomSystem{n: 6, critK: 1}}, nil
			}, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.TTF {
			if base.TTF[i] != got.TTF[i] && !(math.IsInf(base.TTF[i], 1) && math.IsInf(got.TTF[i], 1)) {
				t.Fatalf("workers=%d trial %d: TTF %g != baseline %g", workers, i, got.TTF[i], base.TTF[i])
			}
		}
	}
}
