package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"emvia/internal/trace"
)

// screenInfoFixture is a plausible steady-screen digest for merge tests.
func screenInfoFixture() trace.ScreenInfo {
	return trace.ScreenInfo{
		Vias:           40,
		MortalVias:     12,
		Segments:       60,
		MortalSegments: 9,
		SigmaCritViaPa: 4.1e8,
		SigmaTViaPa:    2.2e8,
	}
}

// mergeSpec returns a resolved spec with the given trial count, the fixed
// question every merge test answers.
func mergeSpec(t testing.TB, trials int) *JobSpec {
	t.Helper()
	spec, err := DecodeJobSpec(strings.NewReader(tinySpec))
	if err != nil {
		t.Fatalf("decoding tinySpec: %v", err)
	}
	r := spec.Resolved()
	r.Trials = trials
	return r
}

// partialFor fabricates a valid partial covering [start, start+count) of a
// synthetic 10-trial outcome vector: trial t's TTF is float64(t+1)*1e7,
// except trial 3 which is +Inf (the censored-trial spelling).
func partialFor(hash string, spec *JobSpec, start, count int) *PartialManifest {
	ttf := make([]any, count)
	for i := 0; i < count; i++ {
		t := start + i
		if t == 3 {
			ttf[i] = "+Inf"
		} else {
			ttf[i] = float64(t+1) * 1e7
		}
	}
	return &PartialManifest{
		SchemaVersion: PartialManifestSchemaVersion,
		ContentHash:   hash,
		MaterialHash:  "mat",
		Engine:        spec.Engine,
		TrialStart:    start,
		TrialCount:    count,
		TTFSeconds:    ttf,
	}
}

// TestMergePartialsRoundTrip: any tiling of [0, N) reassembles the same
// trial vector, regardless of the order the partials arrive in.
func TestMergePartialsRoundTrip(t *testing.T) {
	const hash = "abc123"
	spec := mergeSpec(t, 10)
	for _, bounds := range [][]int{
		{0, 10},
		{0, 5, 10},
		{0, 1, 4, 9, 10},
	} {
		var parts []*PartialManifest
		for i := 0; i+1 < len(bounds); i++ {
			parts = append(parts, partialFor(hash, spec, bounds[i], bounds[i+1]-bounds[i]))
		}
		// Reverse arrival order: merge must sort, not trust the caller.
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		out, err := mergePartials(hash, spec, parts)
		if err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		if len(out.mcResult.TTF) != 10 {
			t.Fatalf("bounds %v: merged %d trials, want 10", bounds, len(out.mcResult.TTF))
		}
		for i, v := range out.mcResult.TTF {
			if i == 3 {
				if !math.IsInf(v, 1) {
					t.Errorf("bounds %v: trial 3 = %g, want +Inf", bounds, v)
				}
				continue
			}
			if v != float64(i+1)*1e7 {
				t.Errorf("bounds %v: trial %d = %g, want %g", bounds, i, v, float64(i+1)*1e7)
			}
		}
		if out.materialHash != "mat" {
			t.Errorf("bounds %v: material hash %q not carried through", bounds, out.materialHash)
		}
	}
}

// TestMergePartialsRejects: every malformed fleet answer is an error —
// never a panic, never a silently merged manifest.
func TestMergePartialsRejects(t *testing.T) {
	const hash = "abc123"
	spec := mergeSpec(t, 10)
	good := func() []*PartialManifest {
		return []*PartialManifest{
			partialFor(hash, spec, 0, 5),
			partialFor(hash, spec, 5, 5),
		}
	}
	cases := []struct {
		name string
		mut  func([]*PartialManifest) []*PartialManifest
		want string
	}{
		{"zero partials", func(p []*PartialManifest) []*PartialManifest { return nil }, "zero partial"},
		{"nil partial", func(p []*PartialManifest) []*PartialManifest { p[1] = nil; return p }, "nil partial"},
		{"overlap", func(p []*PartialManifest) []*PartialManifest {
			p[1] = partialFor(hash, spec, 4, 6)
			return p
		}, "overlap"},
		{"duplicate range", func(p []*PartialManifest) []*PartialManifest {
			return append(p, partialFor(hash, spec, 0, 5))
		}, "overlap"},
		{"gap", func(p []*PartialManifest) []*PartialManifest {
			p[1] = partialFor(hash, spec, 6, 4)
			return p
		}, "uncovered"},
		{"missing tail", func(p []*PartialManifest) []*PartialManifest {
			p[1] = partialFor(hash, spec, 5, 4)
			return p
		}, "cover"},
		{"wrong spec hash", func(p []*PartialManifest) []*PartialManifest {
			p[1].ContentHash = "other"
			return p
		}, "answers spec"},
		{"schema skew", func(p []*PartialManifest) []*PartialManifest {
			p[1].SchemaVersion = 99
			return p
		}, "schema"},
		{"schema 2 shard", func(p []*PartialManifest) []*PartialManifest {
			// Computed before the low-rank cascade: its TTFs may differ
			// from a fresh shard's at rounding level.
			p[1].SchemaVersion = 2
			return p
		}, "schema"},
		{"schema 3 shard", func(p []*PartialManifest) []*PartialManifest {
			// Computed on a nested-dissection-ordered factor: its TTFs may
			// differ from a fresh shard's at rounding level.
			p[1].SchemaVersion = 3
			return p
		}, "schema"},
		{"engine mismatch", func(p []*PartialManifest) []*PartialManifest {
			p[1].Engine = "both"
			return p
		}, "engine"},
		{"material skew", func(p []*PartialManifest) []*PartialManifest {
			p[1].MaterialHash = "other"
			return p
		}, "material hash"},
		{"negative start", func(p []*PartialManifest) []*PartialManifest {
			p[1].TrialStart = -1
			return p
		}, "negative"},
		{"range past end", func(p []*PartialManifest) []*PartialManifest {
			p[1] = partialFor(hash, spec, 5, 6)
			return p
		}, "exceeds"},
		{"ttf length mismatch", func(p []*PartialManifest) []*PartialManifest {
			p[1].TTFSeconds = p[1].TTFSeconds[:3]
			return p
		}, "ttf entries"},
		{"corrupt ttf entry", func(p []*PartialManifest) []*PartialManifest {
			p[1].TTFSeconds[2] = "bogus"
			return p
		}, "invalid ttf_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := mergePartials(hash, spec, tc.mut(good()))
			if err == nil {
				t.Fatalf("merge accepted a %s fleet answer", tc.name)
			}
			if out != nil {
				t.Fatalf("merge returned output alongside error %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMergePartialsScreenDisagreement: -engine=both shards must agree on
// the deterministic steady screen.
func TestMergePartialsScreenDisagreement(t *testing.T) {
	const hash = "abc123"
	spec := mergeSpec(t, 10)
	spec.Engine = "both"
	a := partialFor(hash, spec, 0, 5)
	b := partialFor(hash, spec, 5, 5)
	a.Engine, b.Engine = "both", "both"
	sa := screenInfoFixture()
	sb := screenInfoFixture()
	sb.MortalVias++
	a.Screen, b.Screen = &sa, &sb
	if _, err := mergePartials(hash, spec, []*PartialManifest{a, b}); err == nil || !strings.Contains(err.Error(), "screen") {
		t.Fatalf("disagreeing screens merged: err=%v", err)
	}
	// One shard missing its screen entirely is the same disagreement.
	b.Screen = nil
	if _, err := mergePartials(hash, spec, []*PartialManifest{a, b}); err == nil || !strings.Contains(err.Error(), "screen") {
		t.Fatalf("nil-vs-set screens merged: err=%v", err)
	}
	// Agreement merges and carries the screen through.
	sc := sa
	b.Screen = &sc
	out, err := mergePartials(hash, spec, []*PartialManifest{a, b})
	if err != nil {
		t.Fatalf("agreeing screens: %v", err)
	}
	if out.screen == nil || *out.screen != sa {
		t.Fatalf("merged screen %+v, want %+v", out.screen, sa)
	}
}

// TestPartialEncodeDecodeRoundTrip pins the canonical wire format: encode →
// decode is the identity, including non-finite spellings, and the decoder
// rejects unknown fields and trailing garbage.
func TestPartialEncodeDecodeRoundTrip(t *testing.T) {
	spec := mergeSpec(t, 10)
	p := partialFor("abc123", spec, 0, 10)
	p.TTFSeconds[7] = "NaN"
	buf, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodePartialManifest(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	buf2, err := q.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Errorf("encode → decode → encode is not the identity:\n%s\nvs\n%s", buf, buf2)
	}
	if _, err := DecodePartialManifest(strings.NewReader(`{"schema_version":1,"bogus":1}`)); err == nil {
		t.Error("decoder accepted an unknown field")
	}
	if _, err := DecodePartialManifest(bytes.NewReader(append(append([]byte{}, buf...), []byte("{}")...))); err == nil {
		t.Error("decoder accepted trailing data")
	}
}

// FuzzMergePartials throws arbitrary byte blobs at the decode-then-merge
// path: whatever a worker or cache returns, the coordinator must either
// merge a complete, exact tiling or error out — never panic, never accept
// a partial answer.
func FuzzMergePartials(f *testing.F) {
	spec := mergeSpec(f, 6)
	const hash = "abc123"
	seed := func(parts ...*PartialManifest) [][]byte {
		out := make([][]byte, len(parts))
		for i, p := range parts {
			buf, err := p.Encode()
			if err != nil {
				f.Fatalf("seed encode: %v", err)
			}
			out[i] = buf
		}
		return out
	}
	whole := seed(partialFor(hash, spec, 0, 6))
	split := seed(partialFor(hash, spec, 0, 3), partialFor(hash, spec, 3, 3))
	f.Add(whole[0], []byte("{}"))
	f.Add(split[0], split[1])
	f.Add(split[0], split[0])                                                     // duplicate range
	f.Add(split[0], []byte(`{"schema_version":4}`))                               // empty shard
	f.Add([]byte(`not json at all`), split[1])                                    // corrupt
	f.Add(bytes.Replace(split[0], []byte(hash), []byte("deadbeef"), 1), split[1]) // wrong hash
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var parts []*PartialManifest
		for _, raw := range [][]byte{a, b} {
			p, err := DecodePartialManifest(bytes.NewReader(raw))
			if err != nil {
				continue
			}
			parts = append(parts, p)
		}
		out, err := mergePartials(hash, spec, parts)
		if err != nil {
			if out != nil {
				t.Fatalf("merge returned output alongside error %v", err)
			}
			return
		}
		if out == nil || out.mcResult == nil {
			t.Fatal("merge succeeded without a result")
		}
		if len(out.mcResult.TTF) != spec.Trials {
			t.Fatalf("merge accepted %d trials, spec wants %d", len(out.mcResult.TTF), spec.Trials)
		}
		covered := 0
		for _, p := range parts {
			covered += p.TrialCount
		}
		if covered != spec.Trials {
			t.Fatalf("merge accepted partials covering %d of %d trials", covered, spec.Trials)
		}
	})
}
