package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Exposition grammar, one regexp per line class. Values must be plain
// decimal/scientific floats — the writer clamps NaN/±Inf, so the value
// grammar deliberately excludes them.
var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? (\+Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)
)

// validateExposition asserts every line is grammatical, TYPE lines precede
// their family's samples, no series repeats, and no value is NaN/±Inf
// (le="+Inf" appears only as a bucket label, which the sample regexp
// permits solely inside the quoted label value).
func validateExposition(t *testing.T, out []byte) {
	t.Helper()
	seenSeries := make(map[string]bool)
	typed := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			if !promTypeRe.MatchString(line) {
				t.Fatalf("invalid TYPE line: %q", line)
			}
			name := strings.Fields(line)[2]
			if typed[name] != "" {
				t.Fatalf("family %s typed twice", name)
			}
			typed[name] = strings.Fields(line)[3]
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("invalid sample line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		series, value := line[:sp], line[sp+1:]
		if value == "+Inf" || value == "-Inf" || value == "NaN" {
			t.Fatalf("non-finite value leaked: %q", line)
		}
		if seenSeries[series] {
			t.Fatalf("duplicate series %q", series)
		}
		seenSeries[series] = true
		// The sample must belong to a declared family.
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				if typed[strings.TrimSuffix(name, suf)] == "histogram" {
					base = strings.TrimSuffix(name, suf)
				}
			}
		}
		if typed[base] == "" {
			t.Fatalf("sample %q precedes or lacks its TYPE line", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning exposition: %v", err)
	}
}

func expose(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

func TestWritePrometheusBasics(t *testing.T) {
	r := New()
	r.Counter("serve.jobs.submitted").Add(7)
	r.Gauge("serve.queue.depth").Set(3)
	r.Gauge(ServeStageSeconds("queue-wait")).Set(0.5) // label convention on a gauge
	h := r.Histogram("serve.job_seconds")
	h.Observe(1.0) // bucket [1,2) → le="2"
	h.Observe(1.5)
	h.Observe(3.0) // bucket [2,4) → le="4"

	out := expose(t, r)
	validateExposition(t, out)
	text := string(out)
	for _, want := range []string{
		"# TYPE emvia_serve_jobs_submitted_total counter",
		"emvia_serve_jobs_submitted_total 7",
		"# TYPE emvia_serve_queue_depth gauge",
		"emvia_serve_queue_depth 3",
		`emvia_serve_stage_seconds{stage="queue-wait"} 0.5`,
		"# TYPE emvia_serve_job_seconds histogram",
		`emvia_serve_job_seconds_bucket{le="2"} 2`,
		`emvia_serve_job_seconds_bucket{le="4"} 3`,
		`emvia_serve_job_seconds_bucket{le="+Inf"} 3`,
		"emvia_serve_job_seconds_sum 5.5",
		"emvia_serve_job_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestWritePrometheusEmptyAndEdgeHistograms(t *testing.T) {
	r := New()
	r.Histogram("never.observed") // empty: only +Inf bucket, sum 0, count 0
	hInf := r.Histogram("ttf.with_inf")
	hInf.Observe(math.Inf(1)) // sum goes +Inf; must clamp, count stays honest
	hNaN := r.Histogram("with.nan")
	hNaN.Observe(math.NaN())
	hNeg := r.Histogram("with.negative")
	hNeg.Observe(-3)
	r.Gauge("nan.gauge").Set(math.NaN())
	r.Gauge("inf.gauge").Set(math.Inf(-1))

	out := expose(t, r)
	validateExposition(t, out)
	text := string(out)
	for _, want := range []string{
		`emvia_never_observed_bucket{le="+Inf"} 0`,
		"emvia_never_observed_sum 0",
		"emvia_never_observed_count 0",
		`emvia_ttf_with_inf_bucket{le="+Inf"} 1`,
		"emvia_ttf_with_inf_sum 0", // clamped
		"emvia_ttf_with_inf_count 1",
		"emvia_with_nan_count 1",
		"emvia_with_negative_count 1",
		"emvia_nan_gauge 0",
		"emvia_inf_gauge 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	obs := []float64{0.001, 0.002, 0.004, 1, 1, 64, 1e30}
	for _, v := range obs {
		h.Observe(v)
	}
	out := expose(t, r)
	validateExposition(t, out)

	// Parse the emitted buckets back and check cumulative consistency:
	// nondecreasing counts, final le="+Inf" equals _count.
	var last int64 = -1
	var infCount, count int64 = -1, -1
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		switch {
		case strings.HasPrefix(line, "emvia_lat_bucket{le=\"+Inf\"}"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &infCount)
		case strings.HasPrefix(line, "emvia_lat_bucket"):
			var c int64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &c)
			if c < last {
				t.Errorf("bucket counts not cumulative: %q after %d", line, last)
			}
			last = c
		case strings.HasPrefix(line, "emvia_lat_count"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if count != int64(len(obs)) || infCount != count {
		t.Errorf("count %d, le=+Inf %d, want both %d", count, infCount, len(obs))
	}
}

// TestRegisterRejectsBadNames: creating a metric whose name breaks the
// grammar panics with the metric's name under every kind.
func TestRegisterRejectsBadNames(t *testing.T) {
	rejectAll(t, []string{
		"", "Upper", "9digit", "_lead", ".lead", "has space", "dash-ed", "uni\u00e9",
		"x_total", "x.total", "h.sum", "h_count", "h.bucket",
		"a{", "a{k=v", "a{}", "a{k}", "a{k=}", "a{=v}", "{k=v}",
		"a{le=v}", "a{__name__=v}", "a{Key=v}", "a{k1=v}", "a{k=V}",
		"a{k=v,j=w}", "a{k=v}{j=w}", "a{k=v}x", "a{k={v}}",
	})
}

// TestWritePrometheusLabelEscaping: a label value that the exposition would
// have to escape (quote, backslash, newline, space) is rejected at
// registration with the metric's name, so the writer never escapes; the
// registry still renders a valid exposition afterwards.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	rejectAll(t, []string{
		`evil{stage=a"b\c` + "\n" + `d}`,
		`a{k="v"}`, `a{k=v\w}`, "a{k=v\n}", "a{k=v w}",
	})
	r := New()
	r.Counter("evil{stage=a-b_c.d}").Inc()
	out := expose(t, r)
	validateExposition(t, out)
	if want := `emvia_evil_total{stage="a-b_c.d"} 1`; !strings.Contains(string(out), want+"\n") {
		t.Errorf("label missing: want %q in:\n%s", want, out)
	}
}

// rejectAll checks that parseName rejects each name and that registering it
// as any kind panics with the name.
func rejectAll(t *testing.T, malformed []string) {
	t.Helper()
	for _, name := range malformed {
		if _, _, _, err := parseName(name); err == nil {
			t.Errorf("parseName(%q) accepted a malformed name", name)
		}
		for _, k := range []kind{counterKind, gaugeKind, histogramKind} {
			expectPanic(t, name, func() { registerAs(New(), name, k) })
		}
	}
}

// TestWritePrometheusCollisions: a name whose base another dotted spelling,
// kind or label key already holds panics at registration with its name; the
// first metric survives and the exposition stays valid. Names that would
// shadow another family's _total or _count series never register.
func TestWritePrometheusCollisions(t *testing.T) {
	// Each pair: the first registers, the second collides with it.
	collisions := []struct {
		first  string
		k1     kind
		second string
		k2     kind
	}{
		{"x", counterKind, "x", gaugeKind},
		{"x", gaugeKind, "x", histogramKind},
		{"x", histogramKind, "x{k=v}", counterKind},
		{"a.b", counterKind, "a_b", counterKind},
		{"a.b{k=v}", histogramKind, "a_b{k=w}", histogramKind},
		{"s{stage=a}", histogramKind, "s{phase=b}", histogramKind},
		{"s{stage=a}", histogramKind, "s", histogramKind},
		{"s", gaugeKind, "s{stage=a}", gaugeKind},
		{ServeStageSeconds("mc"), histogramKind, ServeStageSeconds("mc"), gaugeKind},
	}
	for _, c := range collisions {
		r := New()
		registerAs(r, c.first, c.k1)
		expectPanic(t, c.second, func() { registerAs(r, c.second, c.k2) })
		if registerAs(r, c.first, c.k1) == nil {
			t.Errorf("%q lost after the collision of %q", c.first, c.second)
		}
		validateExposition(t, expose(t, r))
	}

	// Counter x owns emvia_x_total and histogram h owns emvia_h_count:
	// gauges literally named x_total and h_count are refused.
	r := New()
	r.Counter("x").Inc()
	expectPanic(t, "x_total", func() { r.Gauge("x_total").Set(9) })
	expectPanic(t, "h_count", func() { r.Gauge("h_count").Set(9) })
	r.Histogram("h").Observe(1)
	out := expose(t, r)
	validateExposition(t, out)
	for _, want := range []string{"emvia_x_total 1", "emvia_h_count 1"} {
		if !strings.Contains(string(out), want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// registerAs creates (or fetches) name as a metric of kind k.
func registerAs(r *Registry, name string, k kind) any {
	switch k {
	case counterKind:
		return r.Counter(name)
	case gaugeKind:
		return r.Gauge(name)
	}
	return r.Histogram(name)
}

// expectPanic runs fn and fails unless it panics with a message naming the
// metric name.
func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, strconv.Quote(name)) {
			t.Errorf("registering %q: panic %q does not name the metric", name, msg)
		}
	}()
	fn()
}

// TestWritePrometheusLabeledFamilies: the members of one labeled family
// render under one TYPE line, sorted by label value, with the label key the
// name carries; histogram buckets put le after it.
func TestWritePrometheusLabeledFamilies(t *testing.T) {
	r := New()
	r.Counter(CascadeFallbacks("rank")).Add(2)
	r.Counter(CascadeFallbacks("pivot")).Inc()
	r.Histogram(ServeStageSeconds("mc")).Observe(1)
	r.Histogram(ServeStageSeconds("factorize")).Observe(3)
	out := expose(t, r)
	validateExposition(t, out)
	want := `# TYPE emvia_pdn_cascade_fallbacks_total counter
emvia_pdn_cascade_fallbacks_total{reason="pivot"} 1
emvia_pdn_cascade_fallbacks_total{reason="rank"} 2
# TYPE emvia_serve_stage_seconds histogram
emvia_serve_stage_seconds_bucket{stage="factorize",le="4"} 1
emvia_serve_stage_seconds_bucket{stage="factorize",le="+Inf"} 1
emvia_serve_stage_seconds_sum{stage="factorize"} 3
emvia_serve_stage_seconds_count{stage="factorize"} 1
emvia_serve_stage_seconds_bucket{stage="mc",le="2"} 1
emvia_serve_stage_seconds_bucket{stage="mc",le="+Inf"} 1
emvia_serve_stage_seconds_sum{stage="mc"} 1
emvia_serve_stage_seconds_count{stage="mc"} 1
`
	if string(out) != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err %v, %d bytes", err, buf.Len())
	}
}

// FuzzWritePrometheus registers two fuzzed names as fuzzed kinds with a
// fuzzed value (NaN/±Inf bit patterns included). A name parseName accepts
// registers unless its base collides with the first name's family; a name
// it rejects panics. Whatever registered must render a valid exposition
// with finite values.
func FuzzWritePrometheus(f *testing.F) {
	f.Add("serve.jobs.submitted", "serve.stage_seconds{stage=mc}", uint8(0x24), 1.5)
	f.Add("", "x", uint8(0), math.NaN())
	f.Add("9starts.with.digit", "a{le=inf}", uint8(1), math.Inf(1))
	f.Add("a{b=c,d=e}", "a{b=c}", uint8(2), -0.0)
	f.Add("weird{unterminated", "x_total", uint8(4), 1e308)
	f.Add("a.b{k=v}", "a_b{k=v}", uint8(0x14), math.Inf(-1))
	f.Add("h", "h{k=v}", uint8(0x22), 2.0)
	f.Fuzz(func(t *testing.T, a, b string, kinds uint8, v float64) {
		r := New()
		var first struct {
			id, base, key string
			k             kind
			ok            bool
		}
		for i, name := range []string{a, b} {
			k := []kind{counterKind, gaugeKind, histogramKind}[int(kinds>>(4*i)&0xf)%3]
			base, key, _, err := parseName(name)
			id := strings.ReplaceAll(base, ".", "_")
			collides := i == 1 && err == nil && first.ok && id == first.id &&
				(base != first.base || k != first.k || key != first.key)
			panicked := recordAs(r, name, k, v)
			if panicked != (err != nil || collides) {
				t.Fatalf("registering %q as a %s: panicked %v, parse error %v, collides %v", name, k, panicked, err, collides)
			}
			if i == 0 {
				first.id, first.base, first.key, first.k, first.ok = id, base, key, k, err == nil
			}
		}
		validateExposition(t, expose(t, r))
	})
}

// recordAs registers name as a metric of kind k, records v into it and
// reports whether registration panicked.
func recordAs(r *Registry, name string, k kind, v float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	switch m := registerAs(r, name, k).(type) {
	case *Counter:
		m.Add(3)
	case *Gauge:
		m.Set(v)
	case *Histogram:
		m.Observe(v)
		m.Observe(-v)
	}
	return false
}

func TestPromValue(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		1.5:          "1.5",
		math.NaN():   "0",
		math.Inf(1):  "0",
		math.Inf(-1): "0",
	}
	for in, want := range cases {
		if got := promValue(in); got != want {
			t.Errorf("promValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := promValue(1e-12); got != strconv.FormatFloat(1e-12, 'g', -1, 64) {
		t.Errorf("promValue(1e-12) = %q", got)
	}
}
