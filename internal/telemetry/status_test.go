package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSnapshotDiskRateSplit(t *testing.T) {
	// Pins the derived-metrics contract of the end-of-run report: hits,
	// misses and corrupt entries partition the disk lookups, and all three
	// rates appear under their documented names.
	r := New()
	r.Counter(StressDiskHits).Add(6)
	r.Counter(StressDiskMisses).Add(3)
	r.Counter(StressDiskBad).Add(1)
	s := r.Snapshot()
	for name, want := range map[string]float64{
		StressDiskHitRate:     0.6,
		StressDiskMissRate:    0.3,
		StressDiskCorruptRate: 0.1,
	} {
		got, ok := s.Derived[name]
		if !ok {
			t.Fatalf("derived metric %q missing from snapshot", name)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
	if sum := s.Derived[StressDiskHitRate] + s.Derived[StressDiskMissRate] + s.Derived[StressDiskCorruptRate]; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("rates sum to %g, want 1", sum)
	}
	// The text report's derived section must carry the split.
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{StressDiskHitRate, StressDiskMissRate, StressDiskCorruptRate} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("text report missing %q:\n%s", name, buf.String())
		}
	}
}

func TestZeroTrialSnapshotFinite(t *testing.T) {
	// A report from a run that never completed a trial (or never touched the
	// disk cache) must not divide by zero: the derived section simply omits
	// the undefined rates, and nothing is NaN/Inf.
	r := New()
	r.Counter(MCTrials).Add(0)
	r.Histogram(MCRunSeconds) // registered but never observed: Sum == 0
	s := r.Snapshot()
	for _, name := range []string{MCTrialsPerSecond, ParUtilization, StressDiskHitRate, StressDiskMissRate, StressDiskCorruptRate} {
		if v, ok := s.Derived[name]; ok {
			t.Fatalf("derived %q = %g present on an empty run", name, v)
		}
	}
	for name, v := range s.Derived {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("derived %q = %g is non-finite", name, v)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatalf("zero-trial text report: %v", err)
	}
}

func TestZeroIntervalProgressDefaults(t *testing.T) {
	// interval <= 0 must select the default rather than emitting on every
	// tick (or dividing the rate limiter by zero).
	r := New()
	var buf bytes.Buffer
	r.SetProgress(&buf, 0)
	for i := int64(1); i < 100; i++ {
		r.ProgressTick("mc", i, 1000) // never final, inside the quiet interval
	}
	if buf.Len() != 0 {
		t.Fatalf("zero-interval sink emitted during quiet interval:\n%s", buf.String())
	}
	r.ProgressTick("mc", 1000, 1000)
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("want exactly the final line, got %d:\n%s", got, buf.String())
	}
}

func TestStatusFollowsProgressTicks(t *testing.T) {
	r := New()
	if _, ok := r.Status(); ok {
		t.Fatal("Status ok before EnableStatus")
	}
	r.EnableStatus()
	if _, ok := r.Status(); ok {
		t.Fatal("Status ok before the first tick")
	}
	r.ProgressTick("mc", 25, 100)
	time.Sleep(5 * time.Millisecond) // let Elapsed become visibly non-zero
	s, ok := r.Status()
	if !ok {
		t.Fatal("Status !ok after a tick")
	}
	if s.Label != "mc" || s.Done != 25 || s.Total != 100 {
		t.Fatalf("status = %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA = %v, want > 0 at 25/100", s.ETA)
	}
	r.ProgressTick("grid", 100, 100)
	s, _ = r.Status()
	if s.Label != "grid" || s.Done != 100 || s.ETA != 0 {
		t.Fatalf("final status = %+v, want grid 100/100 ETA 0", s)
	}

	// Status must never require a progress writer: ticks alone feed it.
	var nilReg *Registry
	nilReg.EnableStatus()
	if _, ok := nilReg.Status(); ok {
		t.Fatal("nil registry reported status")
	}
}
