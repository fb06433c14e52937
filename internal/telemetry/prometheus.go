package telemetry

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a registry.
//
// Each family renders under its exposition name: "emvia_" (one namespace
// per process) plus its base with dots as underscores. The name grammar
// (parseName) makes every name, label key and label value valid as it
// stands, and no two families expose a colliding series:
//
//   - counters gain the conventional "_total" suffix;
//   - the 96 power-of-two histogram buckets render as cumulative
//     `_bucket{le="..."}` series plus `_sum` and `_count`;
//   - non-finite values (a NaN gauge, a +Inf histogram sum) are clamped to
//     0 — the text format technically admits them, but downstream PromQL
//     turns them into poison, so the writer never leaks them.

// WritePrometheus renders the registry's counters, gauges and histograms in
// Prometheus text exposition format. A nil registry writes nothing. The
// output is deterministic: families sort by exposition name, members by
// label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	for _, f := range fams {
		buf.WriteString("# TYPE " + f.name + " " + string(f.kind) + "\n")
		for _, m := range f.members {
			labels := ""
			if f.key != "" {
				labels = f.key + `="` + m.value + `"`
			}
			switch v := m.metric.(type) {
			case *Counter:
				promWriteSample(&buf, f.name, labels, strconv.FormatInt(v.Value(), 10))
			case *Gauge:
				promWriteSample(&buf, f.name, labels, promValue(v.Value()))
			case *Histogram:
				promWriteHist(&buf, f.name, labels, v)
			}
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// promWriteSample writes one sample line; labels is the label list without
// braces, "" when unlabeled.
func promWriteSample(buf *bytes.Buffer, name, labels, value string) {
	buf.WriteString(name)
	if labels != "" {
		buf.WriteString("{" + labels + "}")
	}
	buf.WriteString(" " + value + "\n")
}

// promWriteHist renders one histogram member: cumulative buckets at the
// power-of-two upper bounds (only non-empty buckets are emitted — the
// cumulative counts stay exact at every emitted bound), the mandatory
// le="+Inf" bucket, then _sum and _count.
func promWriteHist(buf *bytes.Buffer, name, labels string, h *Histogram) {
	le := `le="`
	if labels != "" {
		le = labels + `,le="`
	}
	var cum int64
	for b := 0; b < histBuckets-1; b++ {
		if n := h.buckets[b].Load(); n != 0 {
			cum += n
			promWriteSample(buf, name+"_bucket", le+strconv.FormatFloat(math.Ldexp(1, b-histOffset), 'g', -1, 64)+`"`, strconv.FormatInt(cum, 10))
		}
	}
	// The top bucket is the clamp bucket (observations above the range), so
	// its upper bound is +Inf regardless of occupancy.
	total := cum + h.buckets[histBuckets-1].Load()
	promWriteSample(buf, name+"_bucket", le+`+Inf"`, strconv.FormatInt(total, 10))
	sum := 0.0
	if total > 0 {
		sum = math.Float64frombits(h.sumBits.Load())
	}
	promWriteSample(buf, name+"_sum", labels, promValue(sum))
	promWriteSample(buf, name+"_count", labels, strconv.FormatInt(total, 10))
}

// promValue formats a sample value, clamping non-finite floats to 0.
func promValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
