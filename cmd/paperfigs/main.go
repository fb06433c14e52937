// Command paperfigs regenerates every table and figure of the DAC'17 paper
// "Incorporating the Role of Stress on Electromigration in Power Grids with
// Via Arrays" from this repository's implementation.
//
// Usage:
//
//	paperfigs [-fig all|t1|1|6|7|8a|8b|9|10|t2] [-trials N] [-gridtrials N] [-fast] [-stresscache DIR]
//
// Output is printed as labelled data series (and ASCII plots) whose shape is
// directly comparable to the paper's plots; EXPERIMENTS.md records a full
// run against the paper's reported values.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"emvia/internal/cliobs"
	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
)

type options struct {
	fig         string
	trials      int
	gridTrials  int
	fast        bool
	seed        int64
	stressCache string
	// engine is the resolved -engine value (mc or both); the grid
	// experiments pass it through to core.GridAnalysis, so "both" runs the
	// steady screen first and prunes every grid Monte Carlo to the mortal
	// subset.
	engine string
}

func main() {
	var opt options
	flag.StringVar(&opt.fig, "fig", "all", "experiment to run: all, t1, 1, 6, 7, 8a, 8b, 9, 10, t2, s1-s6 (supplementary)")
	flag.IntVar(&opt.trials, "trials", 500, "Monte-Carlo trials for via-array characterization")
	flag.IntVar(&opt.gridTrials, "gridtrials", 500, "Monte-Carlo trials for power-grid analysis")
	flag.BoolVar(&opt.fast, "fast", false, "coarse FEA meshes and smaller grids (quick smoke run)")
	flag.Int64Var(&opt.seed, "seed", 2017, "base random seed")
	flag.StringVar(&opt.stressCache, "stresscache", "", `persistent stress cache: a directory, or "auto" for the default location (EMVIA_STRESS_CACHE or the user cache dir)`)
	var obs cliobs.Config
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	finishObs, err := cliobs.Setup(obs, "paperfigs", flag.CommandLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	opt.engine, err = mc.ParseEngine(obs.Engine) // Setup already validated it
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	if opt.engine == mc.EngineSteady {
		fmt.Fprintln(os.Stderr, "paperfigs: -engine=steady produces no TTF distributions, so the paper's figures cannot be generated from it; use -engine=mc or -engine=both here, or `emgrid analyze -engine=steady` for the standalone classification")
		os.Exit(2)
	}

	runners := map[string]func(*core.Analyzer, options) error{
		"t1": figTable1,
		"1":  fig1,
		"6":  fig6,
		"7":  fig7,
		"8a": fig8a,
		"8b": fig8b,
		"9":  fig9,
		"10": fig10,
		"t2": figTable2,
		"s1": figS1,
		"s2": figS2,
		"s3": figS3,
		"s4": figS4,
		"s5": figS5,
		"s6": figS6,
	}
	order := []string{"t1", "1", "6", "7", "8a", "8b", "9", "10", "t2", "s1", "s2", "s3", "s4", "s5", "s6"}

	var selected []string
	if opt.fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(opt.fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q (want one of %s)\n", f, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}

	analyzer, err := core.NewCLIAnalyzer(opt.fast, opt.stressCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	for _, f := range selected {
		start := time.Now()
		fmt.Printf("==== experiment %s ====\n", f)
		if err := runners[f](analyzer, opt); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: experiment %s: %v\n", f, err)
			os.Exit(1)
		}
		fmt.Printf("---- experiment %s done in %v ----\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	if err := finishObs(); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
}

// fineParams returns structure parameters with two elements across each via
// and gap, the resolution the stress-profile figures need.
func fineParams(a *core.Analyzer, n int, pattern cudd.Pattern) cudd.Params {
	p := a.Base
	p.ArrayN = n
	p.Pattern = pattern
	p.StepArray = 0.5 * math.Sqrt(p.ViaArea) / float64(n)
	return p
}
