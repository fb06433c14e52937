// Command emsweep performs one-at-a-time sensitivity analysis of the
// stress-aware EM model: each physical parameter is perturbed by ±delta
// around its default and the resulting shift of the via-array TTF metrics
// is reported as a tornado table. Because most of the constants in
// equations (1)–(4) are foundry-confidential, knowing which of them the
// headline metrics actually hinge on is a prerequisite for trusting any
// absolute number.
//
// Usage:
//
//	emsweep [-delta 0.1] [-trials 400] [-array 4] [-fast] [-conc N] [-stresscache DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"emvia/internal/cliobs"
	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/phys"
	"emvia/internal/profiling"
	"emvia/internal/stat"
)

type knob struct {
	name  string
	apply func(a *core.Analyzer, factor float64)
}

func knobs() []knob {
	return []knob{
		{"flaw radius Rf", func(a *core.Analyzer, f float64) { a.EM.RfMean *= f }},
		{"surface energy gamma_s", func(a *core.Analyzer, f float64) { a.EM.GammaS *= f }},
		{"activation energy Ea", func(a *core.Analyzer, f float64) { a.EM.Ea *= f }},
		{"bulk modulus B", func(a *core.Analyzer, f float64) { a.EM.Bulk *= f }},
		{"diffusivity D0", func(a *core.Analyzer, f float64) { a.EM.D0 *= f }},
		{"Deff spread sigma", func(a *core.Analyzer, f float64) { a.EM.DeffLogSigma *= f }},
		{"operating T (C)", func(a *core.Analyzer, f float64) {
			// Temperature acts through diffusivity and through ΔT, hence σ_T.
			a.EM.TempC *= f
			a.Base.OperatingT *= f
		}},
		{"stress-free T (C)", func(a *core.Analyzer, f float64) {
			a.Base.AnnealT *= f // changes ΔT and hence every σ_T
		}},
		{"package stress +20 MPa", func(a *core.Analyzer, f float64) {
			// Additive knob: f>1 adds tensile package stress, f<1 subtracts.
			if f > 1 {
				a.PackageStress += 20e6
			} else if f < 1 {
				a.PackageStress -= 20e6
			}
		}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "emsweep: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the sweep and writes its report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("emsweep", flag.ExitOnError)
	delta := fs.Float64("delta", 0.10, "relative perturbation per knob")
	trials := fs.Int("trials", 400, "Monte-Carlo trials per evaluation")
	arrayN := fs.Int("array", 4, "via-array configuration n (n×n)")
	fast := fs.Bool("fast", false, "coarse FEA meshes")
	seed := fs.Int64("seed", 2017, "random seed")
	stressCache := fs.String("stresscache", "", `persistent stress cache: a directory, or "auto" for the default location (EMVIA_STRESS_CACHE or the user cache dir)`)
	conc := fs.Int("conc", 0, "knobs evaluated concurrently (0 = GOMAXPROCS)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var obs cliobs.Config
	obs.RegisterFlags(fs)
	fs.Parse(args) // ExitOnError: -h exits 0 and a bad flag exits 2

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	finishObs, err := cliobs.Setup(obs, "emsweep", fs)
	if err != nil {
		prof.Stop()
		return err
	}
	defer func() {
		if perr := prof.Stop(); err == nil {
			err = perr
		}
		if ferr := finishObs(); err == nil {
			err = ferr
		}
	}()
	engine, err := mc.ParseEngine(obs.Engine) // Setup already validated it
	if err != nil {
		return err
	}

	eval := func(a *core.Analyzer) (median, worst float64, err error) {
		c, err := a.CharacterizeViaArray(cudd.Plus, *arrayN, a.Base.WireWidth, 1e10,
			core.ArrayOpenCircuit(), *trials, *seed)
		if err != nil {
			return 0, 0, err
		}
		e, err := stat.NewECDF(c.Result.Samples)
		if err != nil {
			return 0, 0, err
		}
		return phys.SecondsToYears(e.Percentile(0.5)), phys.SecondsToYears(e.Percentile(0.003)), nil
	}
	// screenEval is the linear-time steady-state screen of the same array:
	// the tightest per-via stress margin (MPa, ≤0 = mortal) and the mortal
	// via count. -engine=steady sweeps this margin instead of the
	// Monte-Carlo TTF; -engine=both reports both.
	screenEval := func(a *core.Analyzer) (marginMPa float64, mortal int, err error) {
		s, err := a.ArraySteadyScreen(cudd.Plus, *arrayN, a.Base.WireWidth, 1e10)
		if err != nil {
			return 0, 0, err
		}
		tightest := math.Inf(1)
		for _, m := range s.ViaMargin {
			if m < tightest {
				tightest = m
			}
		}
		return tightest / 1e6, s.MortalVias, nil
	}

	// value is one perturbed evaluation: the tightest steady margin under
	// -engine=steady, otherwise the Monte-Carlo median, plus the mortal via
	// count under -engine=both. swing is the tornado's sort key.
	var value func(a *core.Analyzer) (float64, int, error)
	var swing func(lo, hi float64) float64
	aBase, err := core.NewCLIAnalyzer(*fast, *stressCache)
	if err != nil {
		return err
	}
	if engine == mc.EngineSteady {
		baseMargin, baseMortal, err := screenEval(aBase)
		if err != nil {
			return fmt.Errorf("baseline screen: %w", err)
		}
		fmt.Fprintf(stdout, "baseline %dx%d Plus array steady screen: %d/%d vias mortal, tightest margin %.1f MPa\n",
			*arrayN, *arrayN, baseMortal, *arrayN**arrayN, baseMargin)
		value = screenEval
		swing = func(lo, hi float64) float64 { return math.Abs(hi - lo) }
	} else {
		baseMed, baseWorst, err := eval(aBase)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		fmt.Fprintf(stdout, "baseline %dx%d Plus array (R=inf): median %.2f y, worst-case %.2f y\n",
			*arrayN, *arrayN, baseMed, baseWorst)
		if engine == mc.EngineBoth {
			margin, mortal, err := screenEval(aBase)
			if err != nil {
				return fmt.Errorf("baseline screen: %w", err)
			}
			fmt.Fprintf(stdout, "baseline steady screen: %d/%d vias mortal, tightest margin %.1f MPa\n",
				mortal, *arrayN**arrayN, margin)
		}
		value = func(a *core.Analyzer) (float64, int, error) {
			m, _, err := eval(a)
			if err != nil || engine != mc.EngineBoth {
				return m, 0, err
			}
			// The stress of a is memoized after eval, so the screen costs
			// one linear solve.
			_, mortal, err := screenEval(a)
			if err != nil {
				return 0, 0, fmt.Errorf("screen: %w", err)
			}
			return m, mortal, nil
		}
		swing = func(lo, hi float64) float64 { return 100 * math.Abs(hi-lo) / baseMed }
	}
	fmt.Fprintln(stdout)

	type row struct {
		name               string
		lo, hi, swing      float64
		loMortal, hiMortal int
	}
	// Knobs are independent — every evaluation runs on its own copy of the
	// baseline analyzer, sharing its memo, so a knob that leaves the
	// structure alone reuses the baseline stress — and they run concurrently
	// under a worker cap. Results and skip diagnostics are collected per
	// index and emitted in knob order, keeping the output identical to a
	// serial sweep.
	ks := knobs()
	type knobResult struct {
		val    [2]float64
		mortal [2]int
		skip   string
	}
	results := make([]knobResult, len(ks))
	nconc := *conc
	if nconc <= 0 {
		nconc = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, nconc)
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k knob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for s, f := range []float64{1 - *delta, 1 + *delta} {
				a := *aBase
				k.apply(&a, f)
				v, mortal, err := value(&a)
				if err != nil {
					results[i].skip = fmt.Sprintf("emsweep: %s ×%.2f: %v (skipped)", k.name, f, err)
					return
				}
				results[i].val[s], results[i].mortal[s] = v, mortal
			}
		}(i, k)
	}
	wg.Wait()
	var rows []row
	for i, k := range ks {
		r := results[i]
		if r.skip != "" {
			fmt.Fprintln(os.Stderr, r.skip)
			continue
		}
		rows = append(rows, row{
			name:     k.name,
			lo:       r.val[0],
			hi:       r.val[1],
			swing:    swing(r.val[0], r.val[1]),
			loMortal: r.mortal[0],
			hiMortal: r.mortal[1],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].swing > rows[j].swing })

	param := fmt.Sprintf("parameter (±%.0f%%)", *delta*100)
	switch engine {
	case mc.EngineSteady:
		fmt.Fprintf(stdout, "%-26s %14s %14s %12s\n", param, "-delta (MPa)", "+delta (MPa)", "swing (MPa)")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-26s %14.1f %14.1f %12.1f\n", r.name, r.lo, r.hi, r.swing)
		}
		fmt.Fprintln(stdout, "\nswing = |margin(+delta) − margin(−delta)| of the tightest steady-state via stress margin")
	case mc.EngineBoth:
		fmt.Fprintf(stdout, "%-26s %12s %12s %10s %13s\n", param, "-delta (y)", "+delta (y)", "swing", "mortal vias")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-26s %12.2f %12.2f %9.1f%% %8d→%-4d\n", r.name, r.lo, r.hi, r.swing, r.loMortal, r.hiMortal)
		}
		fmt.Fprintln(stdout, "\nswing = |median(+delta) − median(−delta)| / baseline median")
	default:
		fmt.Fprintf(stdout, "%-26s %12s %12s %10s\n", param, "-delta (y)", "+delta (y)", "swing")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-26s %12.2f %12.2f %9.1f%%\n", r.name, r.lo, r.hi, r.swing)
		}
		fmt.Fprintln(stdout, "\nswing = |median(+delta) − median(−delta)| / baseline median")
	}
	return nil
}
