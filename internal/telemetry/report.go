package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of a registry's metrics plus the derived
// rates (throughput, utilization, hit rates) a report reader actually wants.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Derived    map[string]float64           `json:"derived,omitempty"`
}

// Snapshot captures the registry's current state. Nil registries snapshot to
// an empty (but non-nil-map) snapshot, so report writers need no nil checks.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
		Derived:    make(map[string]float64),
	}
	if r == nil {
		return s
	}
	r.metrics.Range(func(k, v any) bool {
		switch m := v.(type) {
		case *Counter:
			s.Counters[k.(string)] = m.Value()
		case *Gauge:
			s.Gauges[k.(string)] = m.Value()
		case *Histogram:
			s.Histograms[k.(string)] = m.Snapshot()
		}
		return true
	})
	s.derive()
	return s
}

// derive computes the cross-metric rates from the raw counters/histograms.
func (s *Snapshot) derive() {
	if trials := s.Counters[MCTrials]; trials > 0 {
		if run, ok := s.Histograms[MCRunSeconds]; ok && run.Sum > 0 {
			s.Derived[MCTrialsPerSecond] = float64(trials) / run.Sum
		}
	}
	if wall := s.Counters[ParWallNanos]; wall > 0 {
		s.Derived[ParUtilization] = float64(s.Counters[ParBusyNanos]) / float64(wall)
	}
	if lookups := s.Counters[StressDiskHits] + s.Counters[StressDiskMisses] + s.Counters[StressDiskBad]; lookups > 0 {
		s.Derived[StressDiskHitRate] = float64(s.Counters[StressDiskHits]) / float64(lookups)
		s.Derived[StressDiskMissRate] = float64(s.Counters[StressDiskMisses]) / float64(lookups)
		s.Derived[StressDiskCorruptRate] = float64(s.Counters[StressDiskBad]) / float64(lookups)
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as a human-readable run report: counters,
// histograms and derived rates, each section sorted by metric name.
func (s *Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "=== telemetry report ==="); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-40s %12d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-40s %12.4g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-40s n=%-8d mean=%-11.4g p50=%-11.4g p99=%-11.4g min=%-11.4g max=%-11.4g sum=%.4g\n",
				k, h.Count, h.Mean, h.P50, h.P99, h.Min, h.Max, h.Sum)
		}
	}
	if len(s.Derived) > 0 {
		fmt.Fprintln(w, "derived:")
		for _, k := range sortedKeys(s.Derived) {
			fmt.Fprintf(w, "  %-40s %12.4g\n", k, s.Derived[k])
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
