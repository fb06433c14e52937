package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSinksAreNoOps pins the central design contract: every mutating
// method is callable on nil receivers, so instrumented code never branches.
func TestNilSinksAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry handed out non-nil counter")
	}
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	h := r.Histogram("y")
	if h != nil {
		t.Fatalf("nil registry handed out non-nil histogram")
	}
	h.Observe(1.5)
	if !h.Start().IsZero() {
		t.Fatalf("nil histogram Start should return the zero time")
	}
	h.ObserveSince(time.Time{})
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
	r.ProgressTick("x", 1, 2)
	r.SetProgress(nil, 0)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if r.Counter("hits") != c {
		t.Fatalf("Counter is not idempotent per name")
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	vals := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Min != 1 || s.Max != 512 {
		t.Fatalf("min/max = %g/%g, want 1/512", s.Min, s.Max)
	}
	wantSum := 1023.0
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	// Power-of-two buckets: the p50 estimate must land within a factor √2
	// of the true median bucket (values 1..512 → median between 16 and 32).
	if s.P50 < 8 || s.P50 > 64 {
		t.Fatalf("p50 = %g, outside plausible [8, 64]", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > s.Max {
		t.Fatalf("p99 = %g, want within [p50=%g, max=%g]", s.P99, s.P50, s.Max)
	}
}

func TestHistogramExtremeValues(t *testing.T) {
	h := New().Histogram("h")
	for _, v := range []float64{0, -1, math.Inf(1), 1e-300, 1e300, math.NaN()} {
		h.Observe(v) // must not panic or index out of range
	}
	if got := h.Snapshot().Count; got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
}

func TestEnableIdempotentAndDefault(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	SetDefault(nil)
	if Enabled() {
		t.Fatalf("telemetry enabled after SetDefault(nil)")
	}
	r1 := Enable()
	r2 := Enable()
	if r1 != r2 || Default() != r1 {
		t.Fatalf("Enable is not idempotent")
	}
	r1.Counter("a").Inc()
	if got := Default().Counter("a").Value(); got != 1 {
		t.Fatalf("default registry lost state: %d", got)
	}
}

func TestSnapshotDerivedMetrics(t *testing.T) {
	r := New()
	r.Counter(MCTrials).Add(100)
	r.Histogram(MCRunSeconds).Observe(4.0)
	r.Counter(ParBusyNanos).Add(750)
	r.Counter(ParWallNanos).Add(1000)
	r.Counter(StressDiskHits).Add(3)
	r.Counter(StressDiskMisses).Add(1)
	s := r.Snapshot()
	if got := s.Derived[MCTrialsPerSecond]; math.Abs(got-25) > 1e-12 {
		t.Fatalf("trials/sec = %g, want 25", got)
	}
	if got := s.Derived[ParUtilization]; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.75", got)
	}
	if got := s.Derived[StressDiskHitRate]; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("hit rate = %g, want 0.75", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := New()
	r.Counter(CGSolves).Add(7)
	r.Histogram(CGItersPerSolve).Observe(12)
	s := r.Snapshot()

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{CGSolves, CGItersPerSolve, "7"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("json report does not round-trip: %v", err)
	}
	if back.Counters[CGSolves] != 7 {
		t.Fatalf("round-tripped counter = %d, want 7", back.Counters[CGSolves])
	}
	if back.Histograms[CGItersPerSolve].Count != 1 {
		t.Fatalf("round-tripped histogram count = %d, want 1", back.Histograms[CGItersPerSolve].Count)
	}
}

func TestProgressRateLimitAndFinalTick(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetProgress(&buf, time.Hour) // quiet interval: only the final tick emits
	for i := int64(1); i <= 50; i++ {
		r.ProgressTick("mc", i, 50)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly the final progress line, got:\n%s", out)
	}
	if !strings.Contains(out, "50/50") || !strings.Contains(out, "100%") {
		t.Fatalf("final line malformed: %q", out)
	}
	// Detach: no further output.
	r.SetProgress(nil, 0)
	r.ProgressTick("mc", 50, 50)
	if buf.String() != out {
		t.Fatalf("detached sink still wrote")
	}
}

// TestConcurrentRegistration: goroutines creating the same labeled names
// while others scrape get one metric per name, and every count lands.
func TestConcurrentRegistration(t *testing.T) {
	r := New()
	stages := []string{"admit", "queue-wait", "mc", "merge"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Histogram(ServeStageSeconds(stages[i%len(stages)])).Observe(1)
				r.Counter(CascadeFallbacks(stages[i%len(stages)])).Inc()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r.WritePrometheus(io.Discard)
				r.Snapshot()
				r.HistogramFamily(ServeStageFamily)
			}
		}()
	}
	wg.Wait()
	fam := r.HistogramFamily(ServeStageFamily)
	if len(fam) != len(stages) {
		t.Fatalf("stage family has %d members, want %d", len(fam), len(stages))
	}
	for _, stage := range stages {
		if n := fam[stage].Count; n != 200 {
			t.Errorf("stage %s: %d observations, want 200", stage, n)
		}
		if n := r.Counter(CascadeFallbacks(stage)).Value(); n != 200 {
			t.Errorf("fallbacks %s = %d, want 200", stage, n)
		}
	}
}
