package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// memSink retains every batch it is handed.
type memSink struct {
	batches [][]Event
	closed  bool
}

func (s *memSink) WriteEvents(ev []Event) error {
	cp := make([]Event, len(ev))
	copy(cp, ev)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *memSink) Close() error { s.closed = true; return nil }

func (s *memSink) all() []Event {
	var out []Event
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	r := tr.BeginRun("run", 4)
	if r != nil {
		t.Fatalf("BeginRun on nil tracer = %v, want nil", r)
	}
	trial := r.Trial(0)
	if trial.Enabled() {
		t.Fatal("zero Trial reports Enabled")
	}
	trial.Begin(3)
	trial.Sample(0, 1.5)
	trial.Fail(2.0, 0, "c0")
	trial.Redistribute(2.0, 1.2, 1, 1.1, 2)
	trial.SpecViolation(3.0, 1)
	trial.End(3.0, 1)
	r.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close on nil tracer: %v", err)
	}
	if tr.Ring() != nil {
		t.Fatal("nil tracer leaked state")
	}
}

func TestRunMergeDeterministicOrder(t *testing.T) {
	// Fill trials out of order from multiple goroutines; the merged batch
	// must still come out in trial order.
	sink := &memSink{}
	tc := New(Options{Sinks: []Sink{sink}})
	const trials = 8
	run := tc.BeginRun("merge", trials)
	var wg sync.WaitGroup
	for i := trials - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := run.Trial(i)
			tr.Begin(2)
			tr.Fail(float64(i), i%2, "")
			tr.End(float64(i), 1)
		}(i)
	}
	wg.Wait()
	run.End()
	events := sink.all()
	if len(events) != trials*3 {
		t.Fatalf("got %d events, want %d", len(events), trials*3)
	}
	for i, e := range events {
		wantTrial := i / 3
		if e.Trial != wantTrial {
			t.Fatalf("event %d: trial %d, want %d", i, e.Trial, wantTrial)
		}
		if e.Run != "merge" || e.Seq != 0 {
			t.Fatalf("event %d: run %q seq %d", i, e.Run, e.Seq)
		}
	}
	wantTypes := []EventType{EvTrialBegin, EvFail, EvTrialEnd}
	for i, e := range events {
		if e.Type != wantTypes[i%3] {
			t.Fatalf("event %d: type %v, want %v", i, e.Type, wantTypes[i%3])
		}
	}
}

func TestRunSeqIncrements(t *testing.T) {
	tc := New(Options{})
	a := tc.BeginRun("a", 1)
	b := tc.BeginRun("b", 1)
	if a.seq != 0 || b.seq != 1 {
		t.Fatalf("seqs = %d, %d; want 0, 1", a.seq, b.seq)
	}
	if tc.BeginRun("zero", 0) != nil {
		t.Fatal("BeginRun with 0 trials should return nil")
	}
}

func TestTrialOutOfRange(t *testing.T) {
	tc := New(Options{})
	run := tc.BeginRun("r", 2)
	for _, i := range []int{-1, 2, 100} {
		if run.Trial(i).Enabled() {
			t.Fatalf("Trial(%d) enabled, want no-op", i)
		}
	}
}

func TestDisableSamples(t *testing.T) {
	sink := &memSink{}
	tc := New(Options{Sinks: []Sink{sink}, DisableSamples: true})
	run := tc.BeginRun("r", 1)
	tr := run.Trial(0)
	tr.Begin(1)
	tr.Sample(0, 1.0)
	tr.End(1.0, 0)
	run.End()
	for _, e := range sink.all() {
		if e.Type == EvSample {
			t.Fatal("sample event recorded with DisableSamples")
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Run: "r", Seq: 1, Trial: 0, Type: EvTrialBegin, Comp: -1, N: 9},
		{Run: "r", Seq: 1, Trial: 0, Type: EvSample, Comp: 3, V: 2.5e8},
		{Run: "r", Seq: 1, Trial: 0, Type: EvSample, Comp: 4, V: math.Inf(1)},
		{Run: "r", Seq: 1, Trial: 0, Type: EvFail, T: 1.25e8, Comp: 3, Label: "Plus-shaped(2,1)"},
		{Run: "r", Seq: 1, Trial: 0, Type: EvRedistribute, T: 1.25e8, Comp: 5, V: 1.9, V2: 1.2, N: 8},
		{Run: "r", Seq: 1, Trial: 0, Type: EvSpec, T: 2e8, Comp: -1, N: 3},
		{Run: "r", Seq: 1, Trial: 0, Type: EvTrialEnd, Comp: -1, V: math.Inf(1), N: 3},
	}
	for _, e := range events {
		buf, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %v: %v", e.Type, err)
		}
		var back Event
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", buf, err)
		}
		// Fail events with empty labels omit the field; everything else
		// must survive exactly (NaN-free here, so == comparison is fine).
		if back != e {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v\n via %s", e, back, buf)
		}
	}
}

func TestEventJSONNonFinite(t *testing.T) {
	e := Event{Run: "r", Trial: 0, Comp: -1, Type: EvTrialEnd, V: math.Inf(1), N: 1}
	buf, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"v":"+Inf"`) {
		t.Fatalf("infinite TTF not spelled +Inf: %s", buf)
	}
	var back Event
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.V, 1) {
		t.Fatalf("parsed V = %v, want +Inf", back.V)
	}
	var f jsonFloat
	if err := json.Unmarshal([]byte(`"NaN"`), &f); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(f)) {
		t.Fatalf("jsonFloat(NaN) = %v", f)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Fatal("jsonFloat accepted garbage")
	}
}

func TestJSONLSinkStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	ev := []Event{
		{Run: "r", Trial: 0, Comp: -1, Type: EvTrialBegin, N: 2},
		{Run: "r", Trial: 0, Type: EvFail, T: 1, Comp: 0},
		{Run: "r", Trial: 0, Comp: -1, Type: EvTrialEnd, V: 1, N: 1},
	}
	if err := s.WriteEvents(ev); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		n++
	}
	if n != len(ev) {
		t.Fatalf("got %d lines, want %d", n, len(ev))
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	ev := []Event{
		{Run: "mc", Seq: 0, Trial: 0, Type: EvFail, T: 1e8, Comp: 2, Label: "T-shaped(0,1)"},
		{Run: "mc", Seq: 0, Trial: 0, Comp: -1, Type: EvSpec, T: 2e8, N: 2},
		{Run: "mc", Seq: 0, Trial: 0, Comp: -1, Type: EvTrialEnd, V: 2e8, N: 2},
		// Infinite TTF must be skipped, not emitted as invalid JSON.
		{Run: "mc", Seq: 0, Trial: 1, Comp: -1, Type: EvTrialEnd, V: math.Inf(1), N: 0},
	}
	if err := s.WriteEvents(ev); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	// process_name metadata + fail + spec + cascade = 4.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, e["name"].(string))
	}
	want := []string{"process_name", "fail T-shaped(0,1)", "spec violation", "cascade"}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("event %d name %q, want %q", i, n, want[i])
		}
	}
}

func TestChromeSinkEmptyStillValid(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace invalid: %v\n%s", err, buf.String())
	}
}

func TestRingSummaries(t *testing.T) {
	ring := NewRing(2)
	tc := New(Options{Ring: ring})
	run := tc.BeginRun("r", 3)
	for i := 0; i < 3; i++ {
		tr := run.Trial(i)
		tr.Begin(4)
		tr.Fail(float64(10*(i+1)), i, "c")
		tr.Redistribute(float64(10*(i+1)), 1.5+float64(i), 1, 1.1, 3)
		if i == 2 {
			tr.SpecViolation(99, 1)
			tr.End(99, 1)
		} else {
			tr.End(math.Inf(1), 1)
		}
	}
	if got := ring.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	last, ok := ring.Last()
	if !ok {
		t.Fatal("Last on fed ring returned !ok")
	}
	if last.Trial != 2 || last.SpecTime != 99 || last.TTF != 99 || last.FirstComp != 2 || last.MaxRate != 3.5 {
		t.Fatalf("last summary = %+v", last)
	}
	snap := ring.Snapshot()
	if len(snap) != 2 || snap[0].Trial != 1 || snap[1].Trial != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Trial 1 never hit the spec and kept TTF = +Inf.
	if snap[0].SpecTime != -1 || !math.IsInf(snap[0].TTF, 1) {
		t.Fatalf("trial 1 summary = %+v", snap[0])
	}

	var nilRing *Ring
	if nilRing.Total() != 0 {
		t.Fatal("nil ring Total != 0")
	}
	if _, ok := nilRing.Last(); ok {
		t.Fatal("nil ring Last ok")
	}
	if nilRing.Snapshot() != nil {
		t.Fatal("nil ring Snapshot non-nil")
	}
}

// labelCalls names component i "c<i>" and counts the calls.
type labelCalls struct{ n int }

func (l *labelCalls) ComponentLabel(i int) string {
	l.n++
	return "c" + strconv.Itoa(i)
}

// TestRingOnlyTracerSummaries: a tracer whose only output is the ring
// feeds it the same summaries as one that also exports JSONL, asks the
// labeler only for each trial's first failure, and records a trial without
// allocating.
func TestRingOnlyTracerSummaries(t *testing.T) {
	record := func(tc *Tracer, lab Labeler) {
		run := tc.BeginRun("r", 3)
		for i := 0; i < 3; i++ {
			tr := run.Trial(i).Labeled(lab)
			tr.Begin(4)
			tr.Sample(i, 5)
			tr.Fail(float64(10*(i+1)), i, "")
			tr.Redistribute(float64(10*(i+1)), 1.5+float64(i), 1, 1.1, 3)
			tr.Fail(float64(15*(i+1)), 3, "")
			tr.SpecViolation(float64(20*(i+1)), 2)
			tr.End(float64(20*(i+1)), 2)
		}
		run.End()
	}
	var buf bytes.Buffer
	exported := NewRing(8)
	tc := New(Options{Sinks: []Sink{NewJSONLSink(&buf)}, Ring: exported})
	exportLabels := &labelCalls{}
	record(tc, exportLabels)
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 3*7 {
		t.Fatalf("JSONL sink got %d lines, want %d", n, 3*7)
	}
	if exportLabels.n != 6 || !bytes.Contains(buf.Bytes(), []byte(`"label":"c3"`)) {
		t.Fatalf("exporting tracer asked %d labels, want 6 (one per fail event)", exportLabels.n)
	}

	ringOnly := NewRing(8)
	ringLabels := &labelCalls{}
	record(New(Options{Ring: ringOnly}), ringLabels)
	if ringLabels.n != 3 {
		t.Fatalf("ring-only tracer asked %d labels, want 3 (one per trial's first failure)", ringLabels.n)
	}
	got, want := ringOnly.Snapshot(), exported.Snapshot()
	if len(got) != 3 || len(got) != len(want) {
		t.Fatalf("ring sizes: ring-only %d, exported %d, want 3", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("summary %d: ring-only %+v, exported %+v", i, got[i], want[i])
		}
	}
	if got[1].FirstLabel != "c1" || got[1].FirstComp != 1 || got[1].MaxRate != 2.5 || got[1].Failures != 2 {
		t.Fatalf("summary 1 = %+v", got[1])
	}

	const runs = 100
	run := New(Options{Ring: NewRing(8)}).BeginRun("r", runs+1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr := run.Trial(i)
		i++
		tr.Begin(4)
		tr.Sample(0, 5)
		tr.Fail(10, 0, "c0")
		tr.Redistribute(10, 1.5, 1, 1.1, 3)
		tr.SpecViolation(20, 1)
		tr.End(20, 1)
	})
	if allocs != 0 {
		t.Fatalf("ring-only trial allocated %v times, want 0", allocs)
	}
}

func TestManifestWrite(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("emgrid", []string{"-trials", "100"})
	m.Seed = 7
	m.Trials = 100
	m.MaterialHash = "deadbeef"
	m.StressCacheKeyVersion = 1
	artifact := dir + "/trace.jsonl"
	m.Artifacts = []string{artifact, "-"}
	if err := m.WriteBeside(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(ManifestPath(artifact))
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Command != "emgrid" || back.Seed != 7 || back.Trials != 100 ||
		back.MaterialHash != "deadbeef" ||
		back.StressCacheKeyVersion != 1 || back.SchemaVersion != manifestSchemaVersion {
		t.Fatalf("manifest round trip = %+v", back)
	}
	if back.GoVersion == "" || back.GOOS == "" || back.NumCPU < 1 {
		t.Fatalf("runtime fields missing: %+v", back)
	}
}

func TestDefaultInstallUninstall(t *testing.T) {
	if Enabled() {
		t.Fatal("tracer enabled at test start")
	}
	tc := New(Options{})
	SetDefault(tc)
	defer SetDefault(nil)
	if Default() != tc || !Enabled() {
		t.Fatal("SetDefault did not install")
	}
	SetDefault(nil)
	if Enabled() {
		t.Fatal("SetDefault(nil) did not uninstall")
	}
}
