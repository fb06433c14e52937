package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"emvia/internal/monitor"
	"emvia/internal/serve"
)

// service is an in-process emserve: the job API and the monitor endpoints on
// one loopback listener, as cmd/emserve mounts them, with a result directory
// of its own.
type service struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
}

func startService() (*service, error) {
	dir, err := os.MkdirTemp("", "emvia-bench-results-*")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{JobWorkers: mcWorkers, ResultDir: dir})
	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	monitor.Register(mux, monitor.Options{Ring: srv.Ring()})
	return &service{dir: dir, srv: srv, ts: httptest.NewServer(mux)}, nil
}

// close drains the executor, stops the listener and removes the results.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx) //nolint:errcheck // the listener closes either way
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// reply is one submission's answer as a client sees it.
type reply struct {
	dedup    string
	manifest []byte
}

// submit posts a job spec, waits for the job's end frame on its event
// stream unless the answer came from the result cache, and fetches the
// result.
func (s *service) submit(ctx context.Context, body []byte) (*reply, error) {
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Dedup string `json:"dedup"`
	}
	code, buf, err := s.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(buf))
	}
	if err == nil {
		err = json.Unmarshal(buf, &sub)
	}
	if err != nil {
		return nil, err
	}
	if sub.State != string(serve.StateDone) {
		if err := s.waitEnd(ctx, sub.ID); err != nil {
			return nil, err
		}
	}
	code, manifest, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result of %s: HTTP %d", sub.ID, code)
	}
	return &reply{dedup: sub.Dedup, manifest: manifest}, nil
}

// do sends one request and returns the status and body.
func (s *service) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, err
}

// waitEnd reads the job's event stream until its end frame and requires the
// job to have finished done.
func (s *service) waitEnd(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "end" && strings.HasPrefix(line, "data: "):
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return fmt.Errorf("job %s end frame: %w", id, err)
			}
			if st.State != string(serve.StateDone) {
				return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream closed before its end frame", id)
}

// manifestTTF decodes a result manifest's per-trial TTFs, spelled the way
// the service writes them (non-finite values as strings).
func manifestTTF(manifest []byte) ([]float64, error) {
	var m struct {
		TTF []any `json:"ttf_seconds"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, err
	}
	out := make([]float64, len(m.TTF))
	for i, v := range m.TTF {
		switch x := v.(type) {
		case float64:
			out[i] = x
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return nil, fmt.Errorf("ttf_seconds[%d]: %w", i, err)
			}
			out[i] = f
		default:
			return nil, fmt.Errorf("ttf_seconds[%d]: unexpected %T", i, v)
		}
	}
	return out, nil
}
