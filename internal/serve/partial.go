package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"emvia/internal/mc"
	"emvia/internal/trace"
)

// PartialManifestSchemaVersion stamps the partial-manifest wire format.
// Coordinator and workers must agree exactly: a version skew is a merge
// error, never a silent reinterpretation. The version moves with
// manifestSchemaVersion: shards computed before the low-rank failure cascade
// (version 2) or before AMD ordered every grid (version 3) differ from fresh
// ones at solver-rounding level and must not merge with them.
const PartialManifestSchemaVersion = 4

// MaxPartialBytes bounds a partial manifest on the wire (MaxTrials TTF
// entries fit with a wide margin).
const MaxPartialBytes = 8 << 20

// PartialManifest is the canonical result of one trial-range shard of a
// Monte-Carlo job: the resolved-spec content hash it answers, the global
// trial range [TrialStart, TrialStart+TrialCount) it covers, and the
// per-trial outcomes in trial order. Like the full ResultManifest it is
// canonical by construction — no timestamps, hosts or worker counts — so
// the same (hash, range) always yields byte-identical partials, which is
// what makes shard re-issue idempotent and the fleet cache content-
// addressable by spec hash + trial range.
type PartialManifest struct {
	SchemaVersion int    `json:"schema_version"`
	ContentHash   string `json:"content_hash"`
	MaterialHash  string `json:"material_hash"`
	Engine        string `json:"engine"`
	TrialStart    int    `json:"trial_start"`
	TrialCount    int    `json:"trial_count"`
	// TTFSeconds lists the shard's per-trial system TTFs in trial order,
	// entry i holding global trial TrialStart+i, non-finite values spelled
	// as strings per the manifest convention.
	TTFSeconds []any `json:"ttf_seconds"`
	// Screen is the steady-state classification of an -engine=both shard.
	// Every shard screens the same grid deterministically, so merge requires
	// all shards to agree on it.
	Screen *trace.ScreenInfo `json:"screen,omitempty"`
}

// buildPartial assembles the canonical partial manifest of one shard run.
func buildPartial(hash string, spec *JobSpec, start int, out *runOutput) *PartialManifest {
	p := &PartialManifest{
		SchemaVersion: PartialManifestSchemaVersion,
		ContentHash:   hash,
		MaterialHash:  out.materialHash,
		Engine:        spec.Engine,
		TrialStart:    start,
		Screen:        out.screen,
	}
	if res := out.mcResult; res != nil {
		p.TrialCount = len(res.TTF)
		p.TTFSeconds = make([]any, len(res.TTF))
		for i, v := range res.TTF {
			p.TTFSeconds[i] = jsonNumber(v)
		}
	}
	return p
}

// Encode renders the partial as canonical indented JSON with a trailing
// newline, matching the result-manifest convention.
func (p *PartialManifest) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding partial manifest: %w", err)
	}
	return append(buf, '\n'), nil
}

// DecodePartialManifest reads one partial manifest strictly: unknown
// fields and trailing garbage are rejected, and the reader is length-capped.
func DecodePartialManifest(r io.Reader) (*PartialManifest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxPartialBytes+1))
	dec.DisallowUnknownFields()
	var p PartialManifest
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("serve: decoding partial manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after partial manifest")
	}
	return &p, nil
}

// ttfValue converts one TTFSeconds entry back to its float64. JSON decoding
// yields float64 for numbers and string for the non-finite spellings; any
// other shape is corruption.
func ttfValue(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case string:
		switch x {
		case "+Inf":
			return math.Inf(1), nil
		case "-Inf":
			return math.Inf(-1), nil
		case "NaN":
			return math.NaN(), nil
		}
	}
	return 0, fmt.Errorf("serve: invalid ttf_seconds entry %v (%T)", v, v)
}

// readPartial decodes one partial manifest and checks it answers the
// resolved job hash over exactly the trial range r (see checkPartial).
// Every partial that reaches this process — a worker's response or a cache
// entry — passes through it.
func readPartial(rd io.Reader, hash string, r trialRange, resolved *JobSpec) (*PartialManifest, error) {
	p, err := DecodePartialManifest(rd)
	if err != nil {
		return nil, err
	}
	if err := checkPartial(p, hash, resolved); err != nil {
		return nil, err
	}
	if p.TrialStart != r.start || p.TrialCount != r.count {
		return nil, fmt.Errorf("serve: partial manifest covers [%d,%d), want [%d,%d)",
			p.TrialStart, p.TrialStart+p.TrialCount, r.start, r.start+r.count)
	}
	return p, nil
}

// checkPartial validates one partial against the job it claims to answer.
func checkPartial(p *PartialManifest, hash string, resolved *JobSpec) error {
	switch {
	case p == nil:
		return fmt.Errorf("serve: nil partial manifest")
	case p.SchemaVersion != PartialManifestSchemaVersion:
		return fmt.Errorf("serve: partial manifest schema %d, want %d", p.SchemaVersion, PartialManifestSchemaVersion)
	case p.ContentHash != hash:
		return fmt.Errorf("serve: partial manifest answers spec %.12s, want %.12s", p.ContentHash, hash)
	case p.MaterialHash == "":
		return fmt.Errorf("serve: partial manifest carries no material hash")
	case p.TrialStart < 0:
		return fmt.Errorf("serve: partial manifest trial_start %d is negative", p.TrialStart)
	case p.TrialCount < 1:
		return fmt.Errorf("serve: partial manifest trial_count %d (want ≥ 1)", p.TrialCount)
	case len(p.TTFSeconds) != p.TrialCount:
		return fmt.Errorf("serve: partial manifest has %d ttf entries for %d trials", len(p.TTFSeconds), p.TrialCount)
	case p.Engine != resolved.Engine:
		return fmt.Errorf("serve: partial manifest ran engine %q, job wants %q", p.Engine, resolved.Engine)
	case p.TrialStart+p.TrialCount > resolved.Trials:
		return fmt.Errorf("serve: partial manifest range [%d,%d) exceeds the job's %d trials",
			p.TrialStart, p.TrialStart+p.TrialCount, resolved.Trials)
	}
	return nil
}

// mergePartials reconstructs the full-run output from shard partials. The
// merge is strict: every partial must answer the same (hash, material,
// engine) question, agree on the steady screen, and the trial
// ranges must tile [0, trials) exactly — an overlap, gap, duplicate or
// corrupt entry is an error, never a silent drop. A successful merge is
// bit-identical to a single-process run: TTF floats round-trip exactly
// through the JSON encoding, and every derived manifest field (percentiles,
// finite counts) is recomputed from the merged trial vector.
func mergePartials(hash string, resolved *JobSpec, parts []*PartialManifest) (*runOutput, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("serve: merging zero partial manifests")
	}
	trials := resolved.Trials
	if trials < 1 {
		return nil, fmt.Errorf("serve: job spec has no trials to merge")
	}
	for _, p := range parts {
		if err := checkPartial(p, hash, resolved); err != nil {
			return nil, err
		}
	}
	ref := parts[0]
	for _, p := range parts[1:] {
		if p.MaterialHash != ref.MaterialHash {
			return nil, fmt.Errorf("serve: partial manifests disagree on material hash (%.12s vs %.12s)",
				p.MaterialHash, ref.MaterialHash)
		}
		if (p.Screen == nil) != (ref.Screen == nil) || (p.Screen != nil && *p.Screen != *ref.Screen) {
			return nil, fmt.Errorf("serve: partial manifests disagree on the steady screen")
		}
	}
	sorted := make([]*PartialManifest, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TrialStart != sorted[j].TrialStart {
			return sorted[i].TrialStart < sorted[j].TrialStart
		}
		return sorted[i].TrialCount < sorted[j].TrialCount
	})
	next := 0
	for _, p := range sorted {
		switch {
		case p.TrialStart < next:
			return nil, fmt.Errorf("serve: partial manifests overlap at trial %d (range [%d,%d))",
				p.TrialStart, p.TrialStart, p.TrialStart+p.TrialCount)
		case p.TrialStart > next:
			return nil, fmt.Errorf("serve: partial manifests leave trials [%d,%d) uncovered", next, p.TrialStart)
		}
		next = p.TrialStart + p.TrialCount
	}
	if next != trials {
		return nil, fmt.Errorf("serve: partial manifests cover %d of %d trials", next, trials)
	}
	ttf := make([]float64, trials)
	for _, p := range sorted {
		for i, raw := range p.TTFSeconds {
			v, err := ttfValue(raw)
			if err != nil {
				return nil, fmt.Errorf("serve: partial [%d,%d) trial %d: %w",
					p.TrialStart, p.TrialStart+p.TrialCount, p.TrialStart+i, err)
			}
			ttf[p.TrialStart+i] = v
		}
	}
	return &runOutput{
		mcResult:     &mc.Result{TTF: ttf},
		screen:       ref.Screen,
		materialHash: ref.MaterialHash,
	}, nil
}
