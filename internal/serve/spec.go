// Package serve turns the EM analysis engines into queryable infrastructure:
// an HTTP/JSON job API (submit a SPICE deck or synthetic-grid spec plus
// engine options, poll status, stream progress, fetch the result) in front
// of a bounded job queue with per-job worker budgets, deadlines, bounded
// retry and graceful drain.
//
// Completed results are content-addressed the way internal/core's stress
// cache is: sha256 over the canonicalized job spec (defaults applied), the
// engine selection and core.MaterialHash(). Identical submissions therefore
// cost one solve — a concurrent duplicate attaches to the in-flight job
// (singleflight), a later duplicate is served from the result cache — and
// the worker budget is deliberately excluded from the key, because mc's
// per-trial seed splitting makes results bit-identical at any budget.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
)

// SpecSchemaVersion is the job-spec schema this server speaks. Payloads
// carrying a larger version are rejected at decode time (version skew), so a
// job written for a future schema never runs under stale semantics.
const SpecSchemaVersion = 1

// Admission bounds. They cap the work one job can demand, so a single
// malformed or hostile submission cannot occupy the executor for hours.
const (
	// MaxSpecBytes bounds the JSON body (decks included).
	MaxSpecBytes = 4 << 20
	// MaxGridStripes bounds NX and NY of a synthetic grid.
	MaxGridStripes = 256
	// MaxTrials bounds the Monte-Carlo trial count.
	MaxTrials = 100000
)

// GridSource is the synthetic-grid alternative to an inline deck: the
// generator parameters of pdn.Generate, defaulting to the PG1 preset.
type GridSource struct {
	// Name labels the grid; defaults to "PG1" (also selecting preset
	// dimensions when NX/NY are 0). "PG2" and "PG5" select the larger
	// presets.
	Name string `json:"name,omitempty"`
	// NX, NY are the stripe counts; 0 keeps the preset's.
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	// PadPeriod is the pad spacing in stripes; 0 keeps the preset's.
	PadPeriod int `json:"pad_period,omitempty"`
	// Seed drives the load-distribution randomness; 0 selects 1.
	Seed int64 `json:"seed,omitempty"`
	// CalibrateIR rescales the loads so the pristine worst IR drop equals
	// this fraction of Vdd; 0 selects 0.065, negative disables calibration.
	CalibrateIR float64 `json:"calibrate_ir,omitempty"`
}

// ModelSpec is an analytic per-pattern via-array TTF model: a lognormal with
// the given median (years) and shape at a reference array current, rescaled
// 1/I² to the current each array actually carries. It replaces the FEA +
// characterization pipeline for service jobs, which must admit in bounded
// time; a precomputed viaarray.ModelSet can be expressed exactly in this
// form.
type ModelSpec struct {
	MedianYears    float64 `json:"median_years"`
	Sigma          float64 `json:"sigma"`
	RefCurrentAmps float64 `json:"ref_current_amps,omitempty"` // 0 = busiest-array current of this grid
	FailK          int     `json:"fail_k,omitempty"`           // 0 = 16
}

// JobSpec is the POST /v1/jobs payload.
type JobSpec struct {
	// SchemaVersion is the spec schema the client wrote; 0 means current.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Engine selects the analysis backend: "mc", "steady" or "both"
	// (default "mc").
	Engine string `json:"engine,omitempty"`
	// Deck is an inline SPICE deck (IBM-benchmark dialect, node names
	// n<layer>_<x>_<y>). Exactly one of Deck and Grid must be set.
	Deck string `json:"deck,omitempty"`
	// Grid requests a synthetic grid instead of a deck.
	Grid *GridSource `json:"grid,omitempty"`
	// Vdd is the supply voltage; 0 selects 1.8.
	Vdd float64 `json:"vdd,omitempty"`
	// Criterion is the system failure criterion: "ir" (default) or "wl".
	Criterion string `json:"criterion,omitempty"`
	// IRFrac is the IR-drop threshold as a fraction of Vdd; 0 selects 0.10.
	IRFrac float64 `json:"ir_frac,omitempty"`
	// Trials is the Monte-Carlo trial count; 0 selects 100. Ignored by the
	// steady engine.
	Trials int `json:"trials,omitempty"`
	// Seed is the Monte-Carlo seed; 0 selects 2017.
	Seed int64 `json:"seed,omitempty"`
	// Models maps intersection patterns ("plus", "t", "l") to analytic TTF
	// models. Omitted patterns (or a nil map) use the built-in defaults.
	Models map[string]ModelSpec `json:"models,omitempty"`
	// TimeoutSeconds bounds the job's execution wall time. It is an
	// execution knob, not part of the result, so it is excluded from the
	// content hash. 0 selects the server default.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// DecodeJobSpec reads one JSON job spec strictly: unknown fields are
// rejected (a field from a future schema must not be silently dropped —
// that is the version-skew failure mode), trailing garbage is rejected, and
// the body is already expected to be length-capped by the HTTP layer.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after job spec")
	}
	if len(spec.Deck) > MaxSpecBytes {
		return nil, fmt.Errorf("serve: deck exceeds %d bytes", MaxSpecBytes)
	}
	return &spec, nil
}

// finite rejects NaN and ±Inf, which json.Decode cannot produce from
// literals but which defensive layers upstream (or a future binary codec)
// could hand us; every float the spec carries flows through here.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("serve: %s must be finite, got %g", name, v)
	}
	return nil
}

// patternKeys are the accepted Models keys, in canonical order.
var patternKeys = []string{"plus", "t", "l"}

// Validate checks the spec without resolving defaults. A spec that passes
// Validate is admissible: bounded work, one grid source, finite numbers,
// known engine/criterion, current schema.
func (s *JobSpec) Validate() error {
	if s.SchemaVersion > SpecSchemaVersion {
		return fmt.Errorf("serve: job spec schema %d is newer than this server's %d", s.SchemaVersion, SpecSchemaVersion)
	}
	if s.SchemaVersion < 0 {
		return fmt.Errorf("serve: negative schema version %d", s.SchemaVersion)
	}
	if _, err := mc.ParseEngine(s.Engine); err != nil {
		return err
	}
	hasDeck := s.Deck != ""
	hasGrid := s.Grid != nil
	if hasDeck == hasGrid {
		return fmt.Errorf("serve: job spec needs exactly one of deck and grid")
	}
	if hasGrid {
		g := s.Grid
		if g.NX < 0 || g.NY < 0 || g.NX > MaxGridStripes || g.NY > MaxGridStripes {
			return fmt.Errorf("serve: grid dimensions %dx%d out of range (max %d stripes)", g.NX, g.NY, MaxGridStripes)
		}
		if (g.NX != 0 && g.NX < 2) || (g.NY != 0 && g.NY < 2) {
			return fmt.Errorf("serve: grid needs at least 2 stripes per axis, got %dx%d", g.NX, g.NY)
		}
		if g.PadPeriod < 0 {
			return fmt.Errorf("serve: negative pad period %d", g.PadPeriod)
		}
		if err := finite("grid.calibrate_ir", g.CalibrateIR); err != nil {
			return err
		}
		if g.CalibrateIR >= 1 {
			return fmt.Errorf("serve: grid.calibrate_ir must be below 1, got %g", g.CalibrateIR)
		}
		switch strings.ToUpper(g.Name) {
		case "", "PG1", "PG2", "PG5":
		default:
			if g.NX == 0 || g.NY == 0 {
				return fmt.Errorf("serve: custom grid %q needs explicit nx and ny", g.Name)
			}
		}
	}
	if err := finite("vdd", s.Vdd); err != nil {
		return err
	}
	if s.Vdd < 0 {
		return fmt.Errorf("serve: negative vdd %g", s.Vdd)
	}
	switch s.Criterion {
	case "", "ir", "wl":
	default:
		return fmt.Errorf("serve: unknown criterion %q (want ir or wl)", s.Criterion)
	}
	if err := finite("ir_frac", s.IRFrac); err != nil {
		return err
	}
	if s.IRFrac < 0 || s.IRFrac >= 1 {
		return fmt.Errorf("serve: ir_frac must be in [0,1), got %g", s.IRFrac)
	}
	if s.Trials < 0 || s.Trials > MaxTrials {
		return fmt.Errorf("serve: trials must be in [0,%d], got %d", MaxTrials, s.Trials)
	}
	for key, m := range s.Models {
		if _, err := cudd.ParsePattern(key); err != nil {
			return fmt.Errorf("serve: unknown model pattern %q (want plus, t or l)", key)
		}
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"median_years", m.MedianYears},
			{"sigma", m.Sigma},
			{"ref_current_amps", m.RefCurrentAmps},
		} {
			if err := finite("models."+key+"."+c.name, c.v); err != nil {
				return err
			}
		}
		if m.MedianYears <= 0 {
			return fmt.Errorf("serve: models.%s.median_years must be positive, got %g", key, m.MedianYears)
		}
		if m.Sigma <= 0 {
			return fmt.Errorf("serve: models.%s.sigma must be positive, got %g", key, m.Sigma)
		}
		if m.RefCurrentAmps < 0 {
			return fmt.Errorf("serve: models.%s.ref_current_amps must be ≥ 0, got %g", key, m.RefCurrentAmps)
		}
		if m.FailK < 0 {
			return fmt.Errorf("serve: models.%s.fail_k must be ≥ 0, got %d", key, m.FailK)
		}
	}
	if err := finite("timeout_seconds", s.TimeoutSeconds); err != nil {
		return err
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("serve: negative timeout_seconds %g", s.TimeoutSeconds)
	}
	return nil
}

// Resolved returns a copy with every default applied — the canonical form
// the content hash and the result manifest embed, so "trials omitted" and
// "trials: 100" are the same job. TimeoutSeconds is zeroed: it shapes
// execution, never the result.
func (s *JobSpec) Resolved() *JobSpec {
	out := *s
	out.SchemaVersion = SpecSchemaVersion
	engine, _ := mc.ParseEngine(s.Engine)
	out.Engine = engine
	if out.Vdd == 0 {
		out.Vdd = 1.8
	}
	if out.Criterion == "" {
		out.Criterion = "ir"
	}
	if out.IRFrac == 0 {
		out.IRFrac = 0.10
	}
	if out.Engine == mc.EngineSteady {
		// The steady screen neither samples nor iterates: trial and seed
		// knobs are inert, so canonicalize them away.
		out.Trials = 0
		out.Seed = 0
		out.Models = nil
	} else {
		if out.Trials == 0 {
			out.Trials = 100
		}
		if out.Seed == 0 {
			out.Seed = 2017
		}
		models := make(map[string]ModelSpec, len(patternKeys))
		for _, key := range patternKeys {
			m, ok := s.Models[key]
			if !ok {
				m = defaultModelSpec(key)
			}
			if m.FailK == 0 {
				m.FailK = 16
			}
			models[key] = m
		}
		out.Models = models
	}
	if out.Grid != nil {
		g := *out.Grid
		if g.Name == "" {
			g.Name = "PG1"
		}
		if g.Seed == 0 {
			g.Seed = 1
		}
		if g.CalibrateIR == 0 {
			g.CalibrateIR = 0.065
		}
		out.Grid = &g
	}
	out.TimeoutSeconds = 0
	return &out
}

// defaultModelSpec supplies the built-in per-pattern models, medians
// reflecting the paper's stress ordering (L-shaped best, Plus worst) with
// the characterization's typical lognormal shape. RefCurrentAmps 0 means
// "the busiest array of this grid", resolved against the deck at run time.
func defaultModelSpec(key string) ModelSpec {
	med := 6.0
	switch key {
	case "t":
		med = 7.0
	case "l":
		med = 8.0
	}
	return ModelSpec{MedianYears: med, Sigma: 0.35}
}

// hashPayload is what the content hash covers: the resolved spec plus the
// physics fingerprint. Worker budgets, timeouts and queue positions are
// absent by construction — none of them can change a result bit.
type hashPayload struct {
	Spec         *JobSpec `json:"spec"`
	MaterialHash string   `json:"material_hash"`
}

// ContentHash returns the job's content address: sha256 (hex) over the
// canonical JSON of the resolved spec and core.MaterialHash(). Specs that
// resolve identically hash identically; a material-constant change reroutes
// every address, exactly like the stress cache's key versioning.
func (s *JobSpec) ContentHash() (string, error) {
	resolved := s.Resolved()
	buf, err := json.Marshal(hashPayload{Spec: resolved, MaterialHash: core.MaterialHash()})
	if err != nil {
		return "", fmt.Errorf("serve: hashing job spec: %w", err)
	}
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("%x", sum), nil
}
