package main

import (
	"context"
	"math"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/viaarray"
)

// TestTimedSystemBitIdentical requires the timing wrapper to leave the Monte
// Carlo untouched: the same TTFs, bit for bit, as the bare system, with and
// without the steady screen's candidate mask (which the wrapper must forward
// for the engine to take the masked sampling path).
func TestTimedSystemBitIdentical(t *testing.T) {
	gs := pdn.PG1Spec()
	gs.NX, gs.NY = 16, 16
	g, err := pdn.Generate(gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CalibrateLoad(0.065); err != nil {
		t.Fatal(err)
	}
	imax, _, err := g.MaxViaCurrent()
	if err != nil {
		t.Fatal(err)
	}
	models := make(map[cudd.Pattern]viaarray.TTFModel)
	for _, p := range cudd.Patterns() {
		models[p] = viaarray.TTFModel{Dist: stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(7)), Sigma: 0.35}, RefCurrent: imax, FailK: 16}
	}
	master, err := pdn.NewSystem(pdn.TTFConfig{Grid: g, Models: models, Criterion: pdn.IRDrop, IRDropFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	screen, err := master.SteadyScreen(pdn.ScreenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range [][]bool{nil, screen.CandidateMask()} {
		opt := mc.Options{Trials: 48, Seed: 5, Workers: mcWorkers, Candidates: mask}
		bare, err := mc.RunParallelCtx(context.Background(), func() (mc.System, error) { return master.Clone(), nil }, opt)
		if err != nil {
			t.Fatal(err)
		}
		factory, totals := timedFactory(master)
		timed, err := mc.RunParallelCtx(context.Background(), factory, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ttfFingerprint(bare.TTF) != ttfFingerprint(timed.TTF) {
			t.Errorf("masked=%v: wrapped TTFs differ from the bare system's", mask != nil)
		}
		calls := totals()
		events := 0
		for _, ev := range timed.Events {
			events += len(ev)
		}
		if calls.fails != events || calls.fail <= 0 || calls.begin <= 0 || calls.prepare <= 0 {
			t.Errorf("masked=%v: wrapper saw %d fails for %d failure events (fail %v, begin %v, prepare %v)",
				mask != nil, calls.fails, events, calls.fail, calls.begin, calls.prepare)
		}
	}
}
