// Package chartable stores the thermomechanical-stress precharacterization
// of via-array structures: for each (layer pair × intersection pattern × via
// configuration × wire width) it records the peak tensile stress under every
// via of the array, as produced by the FEA of package cudd.
//
// This is the paper's §3.2 characterization database: built once per process
// technology (like standard-cell characterization), then queried during
// power-grid analysis. Wire widths not characterized exactly are answered by
// linear interpolation between the bracketing characterized widths, the
// paper's strategy for keeping the FEA count at 9 × w_n × v_n.
package chartable

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"emvia/internal/cudd"
)

// Key identifies a characterized via-array family up to wire width.
type Key struct {
	LayerPair cudd.LayerPair
	Pattern   cudd.Pattern
	ArrayN    int
}

// String formats the key for error messages.
func (k Key) String() string {
	return fmt.Sprintf("%v/%v/%d×%d", k.LayerPair, k.Pattern, k.ArrayN, k.ArrayN)
}

// Entry is one characterization point: the per-via peak stresses of a
// structure at one wire width.
type Entry struct {
	Key       Key
	WireWidth float64     // m
	Sigma     [][]float64 // [row][col] peak σ_T per via, Pa
}

// Table is the characterization database.
type Table struct {
	entries map[Key][]Entry // sorted by WireWidth
}

// New returns an empty table.
func New() *Table {
	return &Table{entries: make(map[Key][]Entry)}
}

// Add inserts an entry, keeping each family's width axis sorted. Adding a
// second entry at an existing width replaces it.
func (t *Table) Add(e Entry) error {
	if e.Key.ArrayN < 1 {
		return fmt.Errorf("chartable: entry %v has invalid ArrayN", e.Key)
	}
	if e.WireWidth <= 0 {
		return fmt.Errorf("chartable: entry %v has non-positive width %g", e.Key, e.WireWidth)
	}
	if len(e.Sigma) != e.Key.ArrayN {
		return fmt.Errorf("chartable: entry %v has %d stress rows, want %d", e.Key, len(e.Sigma), e.Key.ArrayN)
	}
	for i, row := range e.Sigma {
		if len(row) != e.Key.ArrayN {
			return fmt.Errorf("chartable: entry %v row %d has %d columns, want %d", e.Key, i, len(row), e.Key.ArrayN)
		}
	}
	list := t.entries[e.Key]
	for i := range list {
		if list[i].WireWidth == e.WireWidth {
			list[i] = e
			return nil
		}
	}
	list = append(list, e)
	sort.Slice(list, func(i, j int) bool { return list[i].WireWidth < list[j].WireWidth })
	t.entries[e.Key] = list
	return nil
}

// Keys lists the characterized families in a stable order.
func (t *Table) Keys() []Key {
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.LayerPair != b.LayerPair {
			if a.LayerPair.Lower != b.LayerPair.Lower {
				return a.LayerPair.Lower < b.LayerPair.Lower
			}
			return a.LayerPair.Upper < b.LayerPair.Upper
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		return a.ArrayN < b.ArrayN
	})
	return keys
}

// Widths returns the characterized wire widths of a family.
func (t *Table) Widths(k Key) []float64 {
	list := t.entries[k]
	out := make([]float64, len(list))
	for i, e := range list {
		out[i] = e.WireWidth
	}
	return out
}

// Len returns the total number of entries.
func (t *Table) Len() int {
	n := 0
	for _, l := range t.entries {
		n += len(l)
	}
	return n
}

// Lookup returns the per-via peak stress matrix for a family at the given
// wire width, interpolating linearly between bracketing characterized widths
// and clamping outside the characterized range.
func (t *Table) Lookup(k Key, width float64) ([][]float64, error) {
	list := t.entries[k]
	if len(list) == 0 {
		return nil, fmt.Errorf("chartable: no characterization for %v", k)
	}
	if width <= 0 {
		return nil, fmt.Errorf("chartable: non-positive width %g", width)
	}
	i := sort.Search(len(list), func(i int) bool { return list[i].WireWidth >= width })
	switch {
	case i == 0:
		return cloneSigma(list[0].Sigma), nil
	case i == len(list):
		return cloneSigma(list[len(list)-1].Sigma), nil
	case list[i].WireWidth == width:
		return cloneSigma(list[i].Sigma), nil
	}
	lo, hi := list[i-1], list[i]
	f := (width - lo.WireWidth) / (hi.WireWidth - lo.WireWidth)
	n := k.ArrayN
	out := make([][]float64, n)
	for r := 0; r < n; r++ {
		out[r] = make([]float64, n)
		for c := 0; c < n; c++ {
			out[r][c] = lo.Sigma[r][c]*(1-f) + hi.Sigma[r][c]*f
		}
	}
	return out, nil
}

func cloneSigma(s [][]float64) [][]float64 {
	out := make([][]float64, len(s))
	for i, row := range s {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// BuildSpec directs a characterization campaign.
type BuildSpec struct {
	// LayerPairs, Patterns, ArrayNs and WireWidths enumerate the families:
	// the FEA count is the product of the four lengths.
	LayerPairs []cudd.LayerPair
	Patterns   []cudd.Pattern
	ArrayNs    []int
	WireWidths []float64
	// Base provides the structure parameters shared by all runs (geometry,
	// temperatures, resolution); Pattern/LayerPair/ArrayN/WireWidth fields
	// are overwritten per run.
	Base cudd.Params
	// Progress, when non-nil, is called before each FEA run.
	Progress func(k Key, width float64)
	// Characterize produces each run's per-via peak σ_T matrix, the
	// PeakSigmaT of cudd.Characterize for the same params. It is required:
	// the caller picks the FEA solve options and may route solves through a
	// persistent cache.
	Characterize func(p cudd.Params) ([][]float64, error)
}

// Build runs the full FEA campaign of the spec and returns the populated
// table. This is the expensive one-time-per-technology step; the paper notes
// its cost is acceptable for the same reason standard-cell characterization
// is.
func Build(spec BuildSpec) (*Table, error) {
	if len(spec.LayerPairs) == 0 || len(spec.Patterns) == 0 || len(spec.ArrayNs) == 0 || len(spec.WireWidths) == 0 {
		return nil, fmt.Errorf("chartable: empty build spec axis")
	}
	if spec.Characterize == nil {
		return nil, fmt.Errorf("chartable: build spec has no Characterize")
	}
	t := New()
	for _, lp := range spec.LayerPairs {
		for _, pat := range spec.Patterns {
			for _, n := range spec.ArrayNs {
				for _, w := range spec.WireWidths {
					k := Key{LayerPair: lp, Pattern: pat, ArrayN: n}
					if spec.Progress != nil {
						spec.Progress(k, w)
					}
					p := spec.Base
					p.LayerPair = lp
					p.Pattern = pat
					p.ArrayN = n
					p.WireWidth = w
					sigma, err := spec.Characterize(p)
					if err != nil {
						return nil, fmt.Errorf("chartable: characterizing %v at width %g: %w", k, w, err)
					}
					if err := t.Add(Entry{Key: k, WireWidth: w, Sigma: sigma}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return t, nil
}

// jsonEntry is the serialized form of an Entry.
type jsonEntry struct {
	LowerClass int         `json:"lower_class"`
	UpperClass int         `json:"upper_class"`
	Pattern    int         `json:"pattern"`
	ArrayN     int         `json:"array_n"`
	WireWidth  float64     `json:"wire_width_m"`
	Sigma      [][]float64 `json:"sigma_pa"`
}

// Save writes the table as JSON.
func (t *Table) Save(w io.Writer) error {
	var out []jsonEntry
	for _, k := range t.Keys() {
		for _, e := range t.entries[k] {
			out = append(out, jsonEntry{
				LowerClass: int(k.LayerPair.Lower),
				UpperClass: int(k.LayerPair.Upper),
				Pattern:    int(k.Pattern),
				ArrayN:     k.ArrayN,
				WireWidth:  e.WireWidth,
				Sigma:      e.Sigma,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Load reads a table previously written by Save.
func Load(r io.Reader) (*Table, error) {
	var in []jsonEntry
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("chartable: decoding: %w", err)
	}
	t := New()
	for _, je := range in {
		e := Entry{
			Key: Key{
				LayerPair: cudd.LayerPair{
					Lower: cudd.LayerClass(je.LowerClass),
					Upper: cudd.LayerClass(je.UpperClass),
				},
				Pattern: cudd.Pattern(je.Pattern),
				ArrayN:  je.ArrayN,
			},
			WireWidth: je.WireWidth,
			Sigma:     je.Sigma,
		}
		if err := t.Add(e); err != nil {
			return nil, err
		}
	}
	return t, nil
}
