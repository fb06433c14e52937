package viaarray

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"emvia/internal/cudd"
	"emvia/internal/stat"
)

// ModelSet is a persistable per-pattern via-array TTF characterization: the
// §5.1 product that the grid analysis consumes. Saving it lets the expensive
// characterize step run once per technology and criterion.
type ModelSet struct {
	// ArrayN is the via configuration (n×n).
	ArrayN int
	// FailK is the array failure criterion the models were fitted for.
	FailK int
	// Models maps each intersection pattern to its TTF model.
	Models map[cudd.Pattern]TTFModel
}

// Validate checks completeness.
func (m ModelSet) Validate() error {
	if m.ArrayN < 1 {
		return fmt.Errorf("viaarray: ModelSet ArrayN = %d", m.ArrayN)
	}
	if m.FailK < 1 || m.FailK > m.ArrayN*m.ArrayN {
		return fmt.Errorf("viaarray: ModelSet FailK = %d out of range for %d×%d", m.FailK, m.ArrayN, m.ArrayN)
	}
	for _, pat := range cudd.Patterns() {
		tm, ok := m.Models[pat]
		if !ok {
			return fmt.Errorf("viaarray: ModelSet missing %v model", pat)
		}
		if tm.RefCurrent <= 0 || tm.Dist.Sigma < 0 {
			return fmt.Errorf("viaarray: ModelSet %v model malformed", pat)
		}
	}
	return nil
}

type jsonModel struct {
	Pattern    int     `json:"pattern"`
	Mu         float64 `json:"mu_ln_seconds"`
	Sigma      float64 `json:"sigma_ln"`
	RefCurrent float64 `json:"ref_current_a"`
	FailK      int     `json:"fail_k"`
}

type jsonModelSet struct {
	ArrayN int         `json:"array_n"`
	FailK  int         `json:"fail_k"`
	Models []jsonModel `json:"models"`
}

// Save writes the model set as JSON.
func (m ModelSet) Save(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	out := jsonModelSet{ArrayN: m.ArrayN, FailK: m.FailK}
	for _, pat := range cudd.Patterns() {
		tm := m.Models[pat]
		out.Models = append(out.Models, jsonModel{
			Pattern:    int(pat),
			Mu:         tm.Dist.Mu,
			Sigma:      tm.Dist.Sigma,
			RefCurrent: tm.RefCurrent,
			FailK:      tm.FailK,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// LoadModelSet reads a model set previously written by Save. It rejects a
// pattern id other than Plus, T and L and a pattern listed twice, as well as
// any set Validate rejects.
func LoadModelSet(r io.Reader) (ModelSet, error) {
	var in jsonModelSet
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return ModelSet{}, fmt.Errorf("viaarray: decoding model set: %w", err)
	}
	m := ModelSet{
		ArrayN: in.ArrayN,
		FailK:  in.FailK,
		Models: make(map[cudd.Pattern]TTFModel, len(in.Models)),
	}
	for _, jm := range in.Models {
		pat := cudd.Pattern(jm.Pattern)
		if !slices.Contains(cudd.Patterns(), pat) {
			return ModelSet{}, fmt.Errorf("viaarray: model set lists unknown pattern %d", jm.Pattern)
		}
		if _, dup := m.Models[pat]; dup {
			return ModelSet{}, fmt.Errorf("viaarray: model set lists the %v pattern twice", pat)
		}
		m.Models[pat] = TTFModel{
			Dist:       stat.LogNormal{Mu: jm.Mu, Sigma: jm.Sigma},
			RefCurrent: jm.RefCurrent,
			FailK:      jm.FailK,
		}
	}
	if err := m.Validate(); err != nil {
		return ModelSet{}, err
	}
	return m, nil
}
