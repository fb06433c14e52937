package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"emvia/internal/trace"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = a job's root span
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without the clock reads.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// begin opens a span and returns the function that closes it and its id.
func (t *tracer) begin(job, parent int, name string) (end func(), id int) {
	if t == nil {
		return func() {}, 0
	}
	start := t.since(time.Now())
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: start})
	t.mu.Unlock()
	return func() {
		end := t.since(time.Now())
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}, id
}

// add records an already-measured span, such as a timeline stage.
func (t *tracer) add(job, parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := t.since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: s, End: s + d.Seconds()})
	t.mu.Unlock()
}

// addTimeline records the stages a program-side trace.Timeline collected
// (epoch is the timeline's epoch), renamed by names and parented to parent.
func (t *tracer) addTimeline(job, parent int, epoch time.Time, tl []trace.StageSpan, names map[string]string) {
	for _, st := range tl {
		name, ok := names[st.Stage]
		if !ok {
			continue
		}
		start := epoch.Add(time.Duration(st.StartSeconds * float64(time.Second)))
		t.add(job, parent, name, start, time.Duration(st.DurationSeconds*float64(time.Second)))
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	buf, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerTimes sums, per span name, each span's self time: its duration minus
// the part of it that its child spans cover.
func layerTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// uncoveredFrac returns the share of the root spans' (the jobs') time that
// their child spans leave uncovered: wall time the layer spans do not
// explain.
func uncoveredFrac(spans []span, root string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == root {
			total += s.dur()
		}
	}
	return ratio(layerTimes(spans)[root], total)
}
