package mc

import (
	"math/rand"
	"testing"

	"emvia/internal/trace"
)

// shiftingSystem's aging rates change on every Fail, and with zeroAfter set
// all drop to 0, so a Redistribute summary taken at any other moment than
// right after the Fail it follows would differ. Each Fail records the summary its survivors give
// then (max rate with its first component, or -1 when every rate is 0; mean;
// count), with the arithmetic the trace promises.
type shiftingSystem struct {
	n, critK  int
	zeroAfter int // every rate is 0 from this many failures on (0 = never)

	ttfs   []float64
	alive  []bool
	failed int
	want   [][]trace.Event // per trial, the Redistribute each Fail must produce
}

func (s *shiftingSystem) NumComponents() int { return s.n }

func (s *shiftingSystem) BeginTrial(rng *rand.Rand) error {
	s.ttfs, s.alive, s.failed = make([]float64, s.n), make([]bool, s.n), 0
	s.want = append(s.want, nil)
	for i := range s.ttfs {
		s.ttfs[i] = rng.ExpFloat64() * 10
		s.alive[i] = true
	}
	return nil
}

func (s *shiftingSystem) BaseTTF(i int) float64 { return s.ttfs[i] }

func (s *shiftingSystem) AgingRate(i int) float64 {
	if s.zeroAfter > 0 && s.failed >= s.zeroAfter {
		return 0
	}
	return 0.5 * float64(1+(i*7+s.failed*3)%4)
}

func (s *shiftingSystem) Fail(k int) error {
	s.alive[k] = false
	s.failed++
	maxRate, sum, maxComp, survivors := 0.0, 0.0, -1, 0
	for i := 0; i < s.n; i++ {
		if !s.alive[i] {
			continue
		}
		r := s.AgingRate(i)
		survivors++
		sum += r
		if r > maxRate {
			maxRate, maxComp = r, i
		}
	}
	if survivors > 0 {
		t := len(s.want) - 1
		s.want[t] = append(s.want[t], trace.Event{Type: trace.EvRedistribute, Comp: maxComp, V: maxRate, V2: sum / float64(survivors), N: survivors})
	}
	return nil
}

func (s *shiftingSystem) Failed() (bool, error) { return s.failed >= s.critK, nil }

// eventSink collects the merged event stream of a run.
type eventSink struct{ events []trace.Event }

func (k *eventSink) WriteEvents(ev []trace.Event) error {
	k.events = append(k.events, ev...)
	return nil
}

func (k *eventSink) Close() error { return nil }

// TestTracedRedistributeFollowsFail pins the traced event order: every Fail
// is followed by exactly the Redistribute its survivors give (none when no
// survivor is left), before any SpecViolation, whether the trial stops at
// the criterion, runs to completion, or ends because every survivor stopped
// aging.
func TestTracedRedistributeFollowsFail(t *testing.T) {
	for _, c := range []struct {
		name         string
		zeroAfter    int
		toCompletion bool
	}{
		{"criterion", 0, false},
		{"to-completion", 0, true},
		{"to-completion-rates-vanish", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := &shiftingSystem{n: 6, critK: 2, zeroAfter: c.zeroAfter}
			var sink eventSink
			trace.SetDefault(trace.New(trace.Options{Sinks: []trace.Sink{&sink}}))
			defer trace.SetDefault(nil)
			const trials = 8
			res, err := Run(sys, Options{Trials: trials, Seed: 5, RunToCompletion: c.toCompletion})
			if err != nil {
				t.Fatal(err)
			}
			trace.SetDefault(nil)
			wants := sys.want

			perTrial := make([][]trace.Event, trials)
			for _, e := range sink.events {
				if e.Type != trace.EvSample && e.Type != trace.EvTrialBegin && e.Type != trace.EvTrialEnd {
					perTrial[e.Trial] = append(perTrial[e.Trial], e)
				}
			}
			for tr, evs := range perTrial {
				redist, fails, spec := 0, 0, 0
				for j, e := range evs {
					switch e.Type {
					case trace.EvFail:
						fails++
						if fails <= len(wants[tr]) {
							if j+1 >= len(evs) || evs[j+1].Type != trace.EvRedistribute {
								t.Fatalf("trial %d: fail %d is not followed by its redistribute: %+v", tr, fails, evs)
							}
						} else if j+1 < len(evs) && evs[j+1].Type == trace.EvRedistribute {
							t.Fatalf("trial %d: fail %d left no survivors but has a redistribute", tr, fails)
						}
					case trace.EvRedistribute:
						w := wants[tr][redist]
						redist++
						if evs[j-1].Type != trace.EvFail || e.T != evs[j-1].T || e.Comp != w.Comp || e.V != w.V || e.V2 != w.V2 || e.N != w.N {
							t.Fatalf("trial %d: redistribute %d = %+v after %+v, want %+v", tr, redist, e, evs[j-1], w)
						}
					case trace.EvSpec:
						spec++
						if fails != sys.critK || evs[j-1].Type != trace.EvRedistribute {
							t.Fatalf("trial %d: spec violation after %d fails, preceded by %v", tr, fails, evs[j-1].Type)
						}
					}
				}
				if fails != len(res.Events[tr]) || redist != len(wants[tr]) || spec != 1 {
					t.Fatalf("trial %d: %d fails, %d redistributes, %d spec violations; want %d, %d, 1",
						tr, fails, redist, spec, len(res.Events[tr]), len(wants[tr]))
				}
			}
		})
	}
}
