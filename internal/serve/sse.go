package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"emvia/internal/trace"
)

// sseTrial is the wire form of one ring TrialSummary on the job event
// stream. TTF and the times pass through jsonNumber so +Inf trials (the
// criterion never fired) survive JSON encoding.
type sseTrial struct {
	Trial      int    `json:"trial"`
	Failures   int    `json:"failures"`
	TTFSeconds any    `json:"ttf_seconds"`
	FirstLabel string `json:"first_label,omitempty"`
	FirstTime  any    `json:"first_time,omitempty"`
	SpecTime   any    `json:"spec_time,omitempty"`
	MaxRate    any    `json:"max_rate"`
}

func sseTrialOf(ts trace.TrialSummary) sseTrial {
	out := sseTrial{
		Trial:      ts.Trial,
		Failures:   ts.Failures,
		TTFSeconds: jsonNumber(ts.TTF),
		MaxRate:    jsonNumber(ts.MaxRate),
	}
	if ts.FirstComp >= 0 {
		out.FirstLabel = ts.FirstLabel
		out.FirstTime = jsonNumber(ts.FirstTime)
	}
	if ts.SpecTime >= 0 {
		out.SpecTime = jsonNumber(ts.SpecTime)
	}
	return out
}

// writeEvent emits one SSE frame.
func writeEvent(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, buf); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent-Events stream of
// the job's cascade summaries (filtered from the trace ring by the job's
// run label) interleaved with periodic status frames, closed by a final
// "end" frame when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "serve: streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	label := job.TraceLabel()
	// seen dedups ring entries across polls by (seq, trial): the ring is
	// shared across runs, each under its own seq.
	seen := make(map[[2]int64]bool)
	emitTrials := func() bool {
		for _, ts := range s.ring.Snapshot() {
			if ts.Run != label {
				continue
			}
			key := [2]int64{ts.Seq, int64(ts.Trial)}
			if seen[key] {
				continue
			}
			seen[key] = true
			if writeEvent(w, fl, "trial", sseTrialOf(ts)) != nil {
				return false
			}
		}
		return true
	}

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emitTrials()
			writeEvent(w, fl, "status", statusJSON(job.Status())) //nolint:errcheck
			writeEvent(w, fl, "end", statusJSON(job.Status()))    //nolint:errcheck
			return
		case <-tick.C:
			if !emitTrials() {
				return
			}
			if writeEvent(w, fl, "status", statusJSON(job.Status())) != nil {
				return
			}
		}
	}
}
