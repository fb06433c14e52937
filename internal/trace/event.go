package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// EventType enumerates the structured event kinds.
type EventType uint8

// Event kinds. Every kind is a cascade event: it carries simulated time
// only and is deterministic.
const (
	EvTrialBegin EventType = iota
	EvSample
	EvFail
	EvRedistribute
	EvSpec
	EvTrialEnd
)

// eventTypeNames is the JSON spelling of each kind.
var eventTypeNames = [...]string{
	EvTrialBegin:   "trial_begin",
	EvSample:       "sample",
	EvFail:         "fail",
	EvRedistribute: "redistribute",
	EvSpec:         "spec_violation",
	EvTrialEnd:     "trial_end",
}

// String returns the JSON spelling.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("trace.EventType(%d)", int(t))
}

// eventTypeFromString inverts String.
func eventTypeFromString(s string) (EventType, error) {
	for i, n := range eventTypeNames {
		if n == s {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event type %q", s)
}

// Event is one structured record. Field meaning varies by Type:
//
//	trial_begin    N = component count
//	sample         Comp, V = base TTF (s)
//	fail           T = simulated time (s), Comp, Label = component identity
//	redistribute   T, Comp = max-rate survivor, V = max aging rate,
//	               V2 = mean aging rate, N = survivor count
//	spec_violation T, N = failures so far
//	trial_end      V = system TTF (s, +Inf = criterion never fired),
//	               N = total failures
//
// Run/Seq/Trial identify the Monte-Carlo run (label + per-tracer sequence
// number) and trial.
type Event struct {
	Run   string
	Seq   int64
	Trial int
	Type  EventType
	T     float64
	Comp  int
	Label string
	V     float64
	V2    float64
	N     int
}

// appendJSONFloat renders v, spelling the non-finite values JSON cannot
// carry as quoted strings ("+Inf", "-Inf", "NaN"); jsonFloat parses them
// back.
func appendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// MarshalJSON renders the event as a single flat object, emitting only the
// fields meaningful for the event's type so the per-line cost stays small
// and the byte stream is a pure function of the event values.
func (e Event) MarshalJSON() ([]byte, error) { return e.appendJSON(nil), nil }

func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"type":`...)
	b = strconv.AppendQuote(b, e.Type.String())
	b = append(b, `,"run":`...)
	b = strconv.AppendQuote(b, e.Run)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, `,"trial":`...)
	b = strconv.AppendInt(b, int64(e.Trial), 10)
	switch e.Type {
	case EvTrialBegin:
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	case EvSample:
		b = append(b, `,"comp":`...)
		b = strconv.AppendInt(b, int64(e.Comp), 10)
		b = append(b, `,"v":`...)
		b = appendJSONFloat(b, e.V)
	case EvFail:
		b = append(b, `,"t":`...)
		b = appendJSONFloat(b, e.T)
		b = append(b, `,"comp":`...)
		b = strconv.AppendInt(b, int64(e.Comp), 10)
		if e.Label != "" {
			b = append(b, `,"label":`...)
			b = strconv.AppendQuote(b, e.Label)
		}
	case EvRedistribute:
		b = append(b, `,"t":`...)
		b = appendJSONFloat(b, e.T)
		b = append(b, `,"comp":`...)
		b = strconv.AppendInt(b, int64(e.Comp), 10)
		b = append(b, `,"v":`...)
		b = appendJSONFloat(b, e.V)
		b = append(b, `,"v2":`...)
		b = appendJSONFloat(b, e.V2)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	case EvSpec:
		b = append(b, `,"t":`...)
		b = appendJSONFloat(b, e.T)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	case EvTrialEnd:
		b = append(b, `,"v":`...)
		b = appendJSONFloat(b, e.V)
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	}
	return append(b, '}')
}

// jsonFloat accepts both JSON numbers and the quoted non-finite spellings
// appendJSONFloat emits.
type jsonFloat float64

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = jsonFloat(math.Inf(1))
		case "-Inf":
			*f = jsonFloat(math.Inf(-1))
		case "NaN":
			*f = jsonFloat(math.NaN())
		default:
			return fmt.Errorf("trace: invalid float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// UnmarshalJSON parses one JSONL line back into an Event. Fields absent
// from the line take their neutral values (Trial/Comp = -1).
func (e *Event) UnmarshalJSON(b []byte) error {
	var aux struct {
		Type  string    `json:"type"`
		Run   string    `json:"run"`
		Seq   int64     `json:"seq"`
		Trial *int      `json:"trial"`
		T     jsonFloat `json:"t"`
		Comp  *int      `json:"comp"`
		Label string    `json:"label"`
		V     jsonFloat `json:"v"`
		V2    jsonFloat `json:"v2"`
		N     int       `json:"n"`
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	typ, err := eventTypeFromString(aux.Type)
	if err != nil {
		return err
	}
	*e = Event{
		Run:   aux.Run,
		Seq:   aux.Seq,
		Trial: -1,
		Type:  typ,
		T:     float64(aux.T),
		Comp:  -1,
		Label: aux.Label,
		V:     float64(aux.V),
		V2:    float64(aux.V2),
		N:     aux.N,
	}
	if aux.Trial != nil {
		e.Trial = *aux.Trial
	}
	if aux.Comp != nil {
		e.Comp = *aux.Comp
	}
	return nil
}
