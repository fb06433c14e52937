package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"time"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/phys"
	"emvia/internal/viaarray"
)

// arrayChar is the paper's first level: FEA stress characterization of the
// Plus, T and L via arrays and the via-array Monte Carlo that turns it into
// lifetime models. One round is one job and one unit.
type arrayChar struct {
	cfg   config
	seeds []int64 // ViaArrayModels seed of each round, in run order
	// warmReads holds the traced pass's warm StressFor times, ms.
	warmReads []float64
}

// arrayCharSizes sizes one round: the array size characterized cold, the
// via-array trials per pattern, and the warm stress-cache reads. One size
// keeps rounds short and alike (an 8x8 round would take over three times as
// long), so a run holds enough rounds for its medians; 4x4 is the array of the
// paper's Figs. 6 and 8a.
func arrayCharSizes(tiny bool) (n, trials, warm int) {
	if tiny {
		return 2, 50, 20 // on the coarse mesh
	}
	return 4, 500, 60
}

// arrayCharPool is the number of distinct via-array Monte-Carlo seeds,
// 100 to 100+arrayCharPool-1.
const arrayCharPool = 16

// arrayCharRefJ is the reference current density the via-array models are
// characterized at, A/m² (the analyzer's default for grid analyses).
const arrayCharRefJ = 1e10

func newArrayChar(cfg config) workload { return &arrayChar{cfg: cfg} }

func (a *arrayChar) setup(ctx context.Context) error {
	a.seeds = arrayCharSeeds(a.cfg.seed)
	// The warm-up is a coarse-mesh 1×1 round: it loads the FEA, cache and
	// Monte-Carlo code paths without the cost of the timed sizes.
	dir, err := os.MkdirTemp("", "emvia-bench-stress-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	an := newAnalyzer(true)
	if err := an.EnableStressCache(dir); err != nil {
		return err
	}
	_, err = an.ViaArrayModels(1, an.Base.WireWidth, arrayCharRefJ, core.ArrayOpenCircuit(), 20, 1)
	return err
}

// newAnalyzer returns the paper's nominal technology, on the coarse FEA mesh
// of paperfigs -fast when coarse is set.
func newAnalyzer(coarse bool) *core.Analyzer {
	a := core.NewAnalyzer()
	if coarse {
		a.Base.Margin = 1.0 * phys.Micron
		a.Base.SubstrateThickness = 0.8 * phys.Micron
		a.Base.StepOutside = 0.5 * phys.Micron
		a.Base.StepZBulk = 1.0 * phys.Micron
	}
	return a
}

func (a *arrayChar) close() {}

func (a *arrayChar) finish(context.Context, *tally) error { return nil }

// stressKey names one cold characterization of a round.
func stressKey(n int, pat cudd.Pattern) string { return fmt.Sprintf("n%d.%s", n, pat) }

func (a *arrayChar) unit(ctx context.Context, i int, tr *tracer, tl *tally, pr *passResult) error {
	n, trials, warm := arrayCharSizes(a.cfg.tiny)
	scale := scaleName(a.cfg.tiny)
	seed := a.seeds[i%len(a.seeds)]
	t0 := time.Now()
	out, err := arrayCharRound(a.cfg.tiny, n, trials, warm, seed, tr, i+1)
	d := time.Since(t0)
	tl.check(err == nil, "round %d: %v", i, err)
	if err != nil {
		return ctx.Err()
	}
	pr.jobs = append(pr.jobs, d.Seconds())
	pr.hits = append(pr.hits, out.warmMS...)
	pr.unitDone(1, len(cudd.Patterns())*trials, d)
	pr.outputs[fmt.Sprint(i)] = out.fingerprint
	if tr != nil {
		a.warmReads = append(a.warmReads, out.warmMS...)
	}
	tl.check(out.warmMismatch == 0, "round %d: %d warm stress reads differ from the cold solve", i, out.warmMismatch)
	for k, v := range out.peaks {
		checkReference(tl, "array-char."+scale+".stress."+k+".peak_mpa", v)
	}
	for k, v := range out.medians {
		checkReference(tl, fmt.Sprintf("array-char.%s.model.%s.seed%d.median_years", scale, k, seed), v)
	}
	return nil
}

func (a *arrayChar) layers(*passResult, []span) map[string]float64 {
	return map[string]float64{"core.stress_warm_ms": median(a.warmReads)}
}

// roundOutput is what one array-char round produced.
type roundOutput struct {
	peaks        map[string]float64 // peak σ_T per size and pattern, MPa
	medians      map[string]float64 // model median TTF per size and pattern, years
	warmMS       []float64
	warmMismatch int
	fingerprint  string
}

// arrayCharRound characterizes every pattern at size n on a fresh analyzer
// over an empty stress cache, builds the via-array lifetime models, then
// reads the stresses back warm, each read through a new analyzer so it goes
// to the cache on disk.
func arrayCharRound(tiny bool, n, trials, warm int, seed int64, tr *tracer, job int) (*roundOutput, error) {
	dir, err := os.MkdirTemp("", "emvia-bench-stress-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	endJob, root := tr.begin(job, 0, "job")
	defer endJob()
	an := newAnalyzer(tiny)
	if err := an.EnableStressCache(dir); err != nil {
		return nil, err
	}
	out := &roundOutput{peaks: make(map[string]float64), medians: make(map[string]float64)}
	h := sha256.New()
	cold := make(map[cudd.Pattern][][]float64)
	for _, pat := range cudd.Patterns() {
		end, _ := tr.begin(job, root, "core.stress_cold")
		sigma, err := an.StressFor(pat, an.Base.LayerPair, n, an.Base.WireWidth)
		end()
		if err != nil {
			return nil, err
		}
		cold[pat] = sigma
		out.peaks[stressKey(n, pat)] = peak(sigma) / phys.MPa
		hashMatrix(h, sigma)
	}
	end, _ := tr.begin(job, root, "viaarray.models")
	models, err := an.ViaArrayModels(n, an.Base.WireWidth, arrayCharRefJ, core.ArrayOpenCircuit(), trials, seed)
	end()
	if err != nil {
		return nil, err
	}
	for _, pat := range cudd.Patterns() {
		m := models[pat]
		out.medians[stressKey(n, pat)] = phys.SecondsToYears(m.Dist.Median())
		hashModel(h, m)
	}
	for i := 0; i < warm; i++ {
		pat := cudd.Patterns()[i%3]
		end, _ := tr.begin(job, root, "core.stress_warm")
		t0 := time.Now()
		b := newAnalyzer(tiny)
		err := b.EnableStressCache(dir)
		var sigma [][]float64
		if err == nil {
			sigma, err = b.StressFor(pat, b.Base.LayerPair, n, b.Base.WireWidth)
		}
		d := time.Since(t0)
		end()
		if err != nil {
			return nil, err
		}
		out.warmMS = append(out.warmMS, d.Seconds()*1e3)
		if !sameMatrix(sigma, cold[pat]) {
			out.warmMismatch++
		}
	}
	out.fingerprint = fmt.Sprintf("%x", h.Sum(nil))
	return out, nil
}

func peak(m [][]float64) float64 {
	p := math.Inf(-1)
	for _, row := range m {
		for _, v := range row {
			p = math.Max(p, v)
		}
	}
	return p
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func hashMatrix(h hash.Hash, m [][]float64) {
	var b [8]byte
	for _, row := range m {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

func hashModel(h hash.Hash, m viaarray.TTFModel) {
	hashMatrix(h, [][]float64{{m.Dist.Mu, m.Dist.Sigma, m.RefCurrent, float64(m.FailK)}})
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// arrayCharReference records the stress peaks and model medians of every
// round the pool can produce.
func arrayCharReference(tiny bool, ref map[string]float64) error {
	n, trials, _ := arrayCharSizes(tiny)
	scale := scaleName(tiny)
	an := newAnalyzer(tiny)
	for _, pat := range cudd.Patterns() {
		sigma, err := an.StressFor(pat, an.Base.LayerPair, n, an.Base.WireWidth)
		if err != nil {
			return err
		}
		ref["array-char."+scale+".stress."+stressKey(n, pat)+".peak_mpa"] = peak(sigma) / phys.MPa
	}
	for _, seed := range arrayCharSeeds(0) {
		models, err := an.ViaArrayModels(n, an.Base.WireWidth, arrayCharRefJ, core.ArrayOpenCircuit(), trials, seed)
		if err != nil {
			return err
		}
		for _, pat := range cudd.Patterns() {
			key := fmt.Sprintf("array-char.%s.model.%s.seed%d.median_years", scale, stressKey(n, pat), seed)
			ref[key] = phys.SecondsToYears(models[pat].Dist.Median())
		}
	}
	return nil
}
