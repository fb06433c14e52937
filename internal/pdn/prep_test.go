package pdn

import (
	"math"
	"testing"

	"emvia/internal/mc"
)

// TestPreparedTrialsMatchLegacy cross-checks the batched Sherman–Morrison
// trial preparation against the legacy per-trial solve path: same grid, same
// seeds, batching on vs off. The first post-failure operating point differs
// only by solve rounding (correction about the pristine factor vs a solve
// against the downdated one), so the failure sequences must agree and the
// TTFs must match to solver precision.
func TestPreparedTrialsMatchLegacy(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}

	run := func(batch int) *mc.Result {
		t.Helper()
		master, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.Run(master, mc.Options{Trials: 40, Seed: 11, BatchTrials: batch, RunToCompletion: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(-1)
	prepared := run(8)

	for i := range legacy.TTF {
		a, b := legacy.TTF[i], prepared.TTF[i]
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if d := math.Abs(a-b) / math.Max(math.Abs(a), 1); d > 1e-9 {
			t.Fatalf("trial %d: prepared TTF %g vs legacy %g (rel %g)", i, b, a, d)
		}
		if len(legacy.EventComps[i]) != len(prepared.EventComps[i]) {
			t.Fatalf("trial %d: %d events prepared vs %d legacy", i, len(prepared.EventComps[i]), len(legacy.EventComps[i]))
		}
		for j := range legacy.EventComps[i] {
			if legacy.EventComps[i][j] != prepared.EventComps[i][j] {
				t.Fatalf("trial %d event %d: failed array %d prepared vs %d legacy",
					i, j, prepared.EventComps[i][j], legacy.EventComps[i][j])
			}
		}
	}
}

// TestPreparedTrialsEngage verifies the preparation actually predicts and
// serves first failures — guarding against the hook
// silently degrading to the legacy solve everywhere.
func TestPreparedTrialsEngage(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{101, 202, 303, 404}
	if err := s.PrepareTrials(seeds); err != nil {
		t.Fatal(err)
	}
	if len(s.prep) != len(seeds) {
		t.Fatalf("prepared %d entries, want %d", len(s.prep), len(seeds))
	}
	valid := 0
	for _, e := range s.prep {
		if e.valid {
			valid++
			if e.k < 0 || e.k >= s.NumComponents() || e.zoff < 0 {
				t.Fatalf("valid entry with k=%d zoff=%d", e.k, e.zoff)
			}
		}
	}
	if valid == 0 {
		t.Fatal("no prepared entry is valid; the batched path never engages")
	}

	// Weakest-link runs must not prepare at all: the trial ends at the first
	// failure, before any re-solve the preparation could serve.
	cfg.Criterion = WeakestLink
	cfg.IRDropFrac = 0
	wl, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.PrepareTrials(seeds); err != nil {
		t.Fatal(err)
	}
	if len(wl.prep) != 0 {
		t.Fatalf("weakest-link prepared %d entries, want 0", len(wl.prep))
	}
}

// TestPreparedParallelMatchesSerial pins worker invariance of the batched
// path end to end on a real grid system.
func TestPreparedParallelMatchesSerial(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	master, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := mc.Options{Trials: 24, Seed: 3, BatchTrials: 6}
	serial, err := mc.Run(master, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 3
	parallel, err := mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil }, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.TTF {
		if serial.TTF[i] != parallel.TTF[i] && !(math.IsInf(serial.TTF[i], 1) && math.IsInf(parallel.TTF[i], 1)) {
			t.Fatalf("trial %d: parallel TTF %g != serial %g", i, parallel.TTF[i], serial.TTF[i])
		}
	}
}

// TestPreparedMismatchFallsBack forces the replay prediction wrong: the
// group is prepared from one set of seeds but the trials run from another,
// so the predicted first failure disagrees with the engine's actual first
// scheduling decision and Fail must take the legacy re-solve. The run has to
// come out exactly as correct as an unprepared one — stale preparation may
// cost the speedup, never the answer.
func TestPreparedMismatchFallsBack(t *testing.T) {
	g := mustGrid(t, smallSpec(), 0.05)
	ref := refCurrentOf(t, g)
	cfg := TTFConfig{Grid: g, Models: testModels(ref), Criterion: IRDrop, IRDropFrac: 0.10}
	const trials = 16

	reference, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.Run(reference, mc.Options{Trials: trials, Seed: 11, BatchTrials: -1, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}

	stale, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare from seeds the engine will never use. BatchTrials −1 keeps the
	// engine from re-preparing, so BeginTrial consumes these stale entries.
	wrong := make([]int64, trials)
	for i := range wrong {
		wrong[i] = int64(9000 + 31*i)
	}
	if err := stale.PrepareTrials(wrong); err != nil {
		t.Fatal(err)
	}
	preds := make([]int, 0, trials)
	valid := 0
	for _, e := range stale.prep {
		k := -1
		if e.valid {
			k = e.k
			valid++
		}
		preds = append(preds, k)
	}
	if valid == 0 {
		t.Fatal("no stale prediction is valid; the mismatch path is never reachable")
	}
	got, err := mc.Run(stale, mc.Options{Trials: trials, Seed: 11, BatchTrials: -1, RunToCompletion: true})
	if err != nil {
		t.Fatal(err)
	}

	mismatches := 0
	for i := range want.TTF {
		if len(got.EventComps[i]) == 0 {
			t.Fatalf("trial %d: no failures recorded", i)
		}
		if preds[i] != got.EventComps[i][0] {
			mismatches++
		}
		a, b := want.TTF[i], got.TTF[i]
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if d := math.Abs(a-b) / math.Max(math.Abs(a), 1); d > 1e-9 {
			t.Fatalf("trial %d: stale-prepared TTF %g vs legacy %g (rel %g)", i, b, a, d)
		}
		for j := range want.EventComps[i] {
			if want.EventComps[i][j] != got.EventComps[i][j] {
				t.Fatalf("trial %d event %d: failed array %d stale-prepared vs %d legacy",
					i, j, got.EventComps[i][j], want.EventComps[i][j])
			}
		}
	}
	if mismatches == 0 {
		t.Fatal("every stale prediction matched the actual first failure; the fallback was never exercised")
	}
	t.Logf("stale prep: %d/%d predictions mismatched and fell back to the legacy solve", mismatches, trials)
}
