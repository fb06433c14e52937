package trace

import (
	"context"
	"testing"
	"time"
)

func TestTimelineRecordsSpans(t *testing.T) {
	epoch := time.Now()
	var observed []string
	tl := NewTimeline(epoch, func(stage string, seconds float64) {
		observed = append(observed, stage)
		if seconds < 0 {
			t.Errorf("observer saw negative duration for %s: %v", stage, seconds)
		}
	})
	tl.Add("queue-wait", epoch, 5*time.Millisecond)
	end := tl.Stage("compile")
	end()
	spans := tl.Spans()
	if len(spans) != 2 || spans[0].Stage != "queue-wait" || spans[1].Stage != "compile" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].DurationSeconds != 0.005 {
		t.Errorf("queue-wait duration = %v", spans[0].DurationSeconds)
	}
	if spans[1].StartSeconds < 0 {
		t.Errorf("compile started before epoch: %v", spans[1].StartSeconds)
	}
	if len(observed) != 2 || observed[0] != "queue-wait" || observed[1] != "compile" {
		t.Errorf("observer calls = %v", observed)
	}
}

func TestTimelineNegativeDurationClamped(t *testing.T) {
	tl := NewTimeline(time.Time{}, nil)
	tl.Add("weird", time.Now(), -time.Second)
	if d := tl.Spans()[0].DurationSeconds; d != 0 {
		t.Fatalf("negative duration not clamped: %v", d)
	}
}

func TestTimelineSpanCap(t *testing.T) {
	tl := NewTimeline(time.Time{}, nil)
	for i := 0; i < maxTimelineSpans+10; i++ {
		tl.Add("s", time.Now(), 0)
	}
	if n := len(tl.Spans()); n != maxTimelineSpans {
		t.Fatalf("retained %d spans, want cap %d", n, maxTimelineSpans)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Add("x", time.Now(), time.Second)
	tl.Stage("y")()
	if tl.Spans() != nil {
		t.Fatal("nil timeline must return nil spans")
	}
}

func TestTimelineContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TimelineFrom(ctx) != nil {
		t.Fatal("empty context must carry no timeline")
	}
	if WithTimeline(ctx, nil) != ctx {
		t.Fatal("nil timeline must not wrap the context")
	}
	tl := NewTimeline(time.Time{}, nil)
	if got := TimelineFrom(WithTimeline(ctx, tl)); got != tl {
		t.Fatalf("TimelineFrom = %p, want %p", got, tl)
	}
}

func TestRingOccupancyCap(t *testing.T) {
	var nilRing *Ring
	if nilRing.Occupancy() != 0 || nilRing.Cap() != 0 {
		t.Fatal("nil ring must report 0/0")
	}
	r := NewRing(4)
	if r.Occupancy() != 0 || r.Cap() != 4 {
		t.Fatalf("fresh ring = %d/%d, want 0/4", r.Occupancy(), r.Cap())
	}
	for i := 0; i < 6; i++ {
		r.add(TrialSummary{Trial: i})
	}
	if r.Occupancy() != 4 || r.Cap() != 4 {
		t.Fatalf("wrapped ring = %d/%d, want 4/4", r.Occupancy(), r.Cap())
	}
}
