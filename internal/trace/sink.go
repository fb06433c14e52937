package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes merged event batches. WriteEvents is always called under the
// tracer's mutex, so implementations need no locking of their own.
type Sink interface {
	WriteEvents([]Event) error
	Close() error
}

// JSONLSink writes one JSON object per line — the canonical export format
// and cmd/emtrace's input. Output is buffered; Close flushes (and closes the
// writer when it is an io.Closer).
type JSONLSink struct {
	bw *bufio.Writer
	c  io.Closer
	// scratch is reused across events, so steady-state writes allocate
	// nothing beyond buffer growth.
	scratch []byte
}

// NewJSONLSink wraps w. When w is an io.Closer (e.g. *os.File), Close closes
// it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// WriteEvents appends one line per event.
func (s *JSONLSink) WriteEvents(events []Event) error {
	for _, e := range events {
		s.scratch = e.appendJSON(s.scratch[:0])
		s.scratch = append(s.scratch, '\n')
		if _, err := s.bw.Write(s.scratch); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the underlying writer.
func (s *JSONLSink) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ChromeSink streams the Chrome trace_event JSON format, loadable in
// chrome://tracing and Perfetto. The mapping:
//
//   - Each Monte-Carlo run becomes a process (pid = 2+seq) named after the
//     run label; each trial is a thread (tid = trial index). Simulated
//     seconds map 1:1 to trace microseconds, so a 10-year cascade reads as
//     ~315 s on the viewer's timeline. Trials appear as complete ("X")
//     slices from 0 to the system TTF (finite TTFs only), failures and spec
//     violations as instant ("i") events.
//
// Sample and redistribute events are omitted — they are JSONL/emtrace
// material, not timeline material. Like the JSONL stream, the output is a
// pure function of the cascade events.
type ChromeSink struct {
	bw    *bufio.Writer
	c     io.Closer
	first bool
	// pids maps (seq) → emitted process metadata, so each run's
	// process_name record is written once.
	named map[int64]bool
}

// NewChromeSink wraps w; Close closes it when it is an io.Closer.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{bw: bufio.NewWriterSize(w, 1<<16), first: true, named: make(map[int64]bool)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

func (s *ChromeSink) record(format string, args ...any) error {
	if s.first {
		if _, err := s.bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
			return err
		}
		s.first = false
	} else {
		if _, err := s.bw.WriteString(",\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(s.bw, format, args...)
	return err
}

// WriteEvents converts and appends one batch.
func (s *ChromeSink) WriteEvents(events []Event) error {
	for _, e := range events {
		var err error
		switch e.Type {
		case EvFail:
			if err = s.ensureProcess(e); err != nil {
				break
			}
			name := "fail"
			if e.Label != "" {
				name = "fail " + e.Label
			}
			err = s.record(`{"name":%s,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%.6g,"args":{"comp":%d}}`,
				strconv.Quote(name), 2+e.Seq, e.Trial, e.T, e.Comp)
		case EvSpec:
			if err = s.ensureProcess(e); err != nil {
				break
			}
			err = s.record(`{"name":"spec violation","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%.6g,"args":{"failures":%d}}`,
				2+e.Seq, e.Trial, e.T, e.N)
		case EvTrialEnd:
			if !isFinite(e.V) {
				break
			}
			if err = s.ensureProcess(e); err != nil {
				break
			}
			err = s.record(`{"name":"cascade","ph":"X","pid":%d,"tid":%d,"ts":0,"dur":%.6g,"args":{"failures":%d}}`,
				2+e.Seq, e.Trial, e.V, e.N)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *ChromeSink) ensureProcess(e Event) error {
	if s.named[e.Seq] {
		return nil
	}
	s.named[e.Seq] = true
	return s.record(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
		2+e.Seq, strconv.Quote(e.Run))
}

// Close terminates the JSON document and closes the underlying writer.
func (s *ChromeSink) Close() error {
	var err error
	if s.first {
		_, err = s.bw.WriteString(`{"traceEvents":[`)
		s.first = false
	}
	if err == nil {
		// 1 sim second = 1 trace µs.
		_, err = s.bw.WriteString("\n]," + `"displayTimeUnit":"ms","otherData":{"sim_time_unit":"1us = 1 simulated second"}}` + "\n")
	}
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func isFinite(v float64) bool { return v == v && v-v == 0 }
