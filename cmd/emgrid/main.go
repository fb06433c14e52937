// Command emgrid is the command-line front end of the library: it generates
// benchmark-style power-grid decks, reports their IR drop, runs the FEA
// stress characterization campaign, and performs the full stress-aware EM
// lifetime analysis of a grid.
//
// Subcommands:
//
//	emgrid gen -name PG1 -nx 20 -ny 20 -padperiod 5 -ir 0.065 -viacurrent 0.01 -out grid.sp
//	emgrid irdrop -deck grid.sp -vdd 1.8
//	emgrid characterize -arrays 1,4,8 -widths 2u,2.5u,3u -out table.json
//	emgrid analyze -deck grid.sp -array 4 -arraycrit rinf -syscrit ir -trials 500
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"emvia/internal/cliobs"
	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/profiling"
	"emvia/internal/spice"
	"emvia/internal/viaarray"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "-h" || args[0] == "--help" || args[0] == "help" {
		usage()
		return
	}
	// Global flags precede the subcommand: emgrid -cpuprofile cpu.out analyze …
	global := flag.NewFlagSet("emgrid", flag.ExitOnError)
	global.Usage = usage
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file on exit")
	var obs cliobs.Config
	obs.RegisterFlags(global)
	global.Parse(args) // stops at the subcommand, the first non-flag argument
	args = global.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emgrid: %v\n", err)
		os.Exit(1)
	}
	finishObs, err := cliobs.Setup(obs, "emgrid", global)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emgrid: %v\n", err)
		os.Exit(1)
	}
	switch name := args[0]; {
	case name == "help":
		usage()
	case name == "analyze" || subcommands[name] != nil:
		err = runSubcommand(name, args[1:], obs.Engine)
	default:
		prof.Stop()
		fmt.Fprintf(os.Stderr, "emgrid: unknown subcommand %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	if terr := finishObs(); terr != nil && err == nil {
		err = terr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "emgrid: %v\n", err)
		os.Exit(1)
	}
}

// subcommands holds every subcommand but analyze, the only one with an
// engine choice.
var subcommands = map[string]func([]string) error{
	"gen":          cmdGen,
	"irdrop":       cmdIRDrop,
	"characterize": cmdCharacterize,
	"charmodels":   cmdCharModels,
	"xsection":     cmdXSection,
	"hotspots":     cmdHotspots,
	"optimize":     cmdOptimize,
}

// runSubcommand runs subcommand name with its arguments under the global
// -engine value, which only analyze reads: any other subcommand refuses an
// engine other than mc rather than silently ignore it.
func runSubcommand(name string, args []string, engineFlag string) error {
	if name == "analyze" {
		return cmdAnalyze(args, engineFlag)
	}
	if engine, err := mc.ParseEngine(engineFlag); err != nil || engine != mc.EngineMC {
		return fmt.Errorf("%s: -engine %q applies to analyze only", name, engineFlag)
	}
	return subcommands[name](args)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: emgrid <gen|irdrop|characterize|charmodels|analyze|xsection|hotspots|optimize> [flags]
  gen           generate and tune a synthetic power-grid SPICE deck
  irdrop        solve a deck and report the IR-drop profile
  characterize  run the FEA stress characterization campaign to JSON
  charmodels    characterize via-array TTF models (all patterns) to JSON
  analyze       run the stress-aware EM lifetime analysis of a deck
  xsection      render a Cu DD via-array structure cross-section as SVG
  hotspots      rank via arrays by EM criticality; optional IR heatmap SVG
  optimize      pick the best via-array configuration for a wire + rules
Global flags (before the subcommand):
  -cpuprofile FILE   write a CPU profile
  -memprofile FILE   write a heap profile on exit
  -metrics           print a telemetry report to stderr on exit
  -metrics-json FILE write a JSON telemetry report on exit ("-" = stdout)
  -progress          periodic progress lines during long Monte-Carlo runs
  -trace FILE        JSONL failure-cascade trace ("-" = stdout); see emtrace
  -trace-chrome FILE Chrome trace_event JSON (chrome://tracing, Perfetto)
  -trace-nosamples   omit per-component TTF sample events from traces
  -http ADDR         live monitor: /status, /metrics, /debug/pprof
  -engine ENG        analysis engine for analyze: mc (full Monte Carlo),
                     steady (linear-time screen only), both (screened MC)
Every trace/metrics artifact gets a <file>.manifest.json provenance record.
Run 'emgrid <subcommand> -h' for flags.`)
}

// femFlags registers the FEA flags shared by every subcommand that runs
// stress characterization (-fast, -stresscache), and returns the analyzer
// constructor to call after flag parsing.
func femFlags(fs *flag.FlagSet) func() (*core.Analyzer, error) {
	fast := fs.Bool("fast", false, "coarse FEA meshes")
	cache := fs.String("stresscache", "", `persistent stress cache: a directory, or "auto" for the default location (EMVIA_STRESS_CACHE or the user cache dir)`)
	return func() (*core.Analyzer, error) { return core.NewCLIAnalyzer(*fast, *cache) }
}

// writeOutput hands write the file at path, or stdout when path is empty.
// The file's Close error is returned, so a failed final write-back is not
// reported as success.
func writeOutput(path string, write func(io.Writer) error) (err error) {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("name", "PG1", "grid name: PG1, PG2, PG5, or custom")
	nx := fs.Int("nx", 0, "stripes in x (0 = preset default)")
	ny := fs.Int("ny", 0, "stripes in y (0 = preset default)")
	padPeriod := fs.Int("padperiod", 0, "pad spacing in stripes (0 = preset default)")
	ir := fs.Float64("ir", 0.065, "tuned nominal worst IR drop, fraction of Vdd")
	viaCur := fs.Float64("viacurrent", 0.01, "tuned busiest via-array current, A")
	out := fs.String("out", "", "output deck path (default stdout)")
	seed := fs.Int64("seed", 1, "load-distribution seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	spec := pdn.PresetSpec(*name, *nx, *ny, *padPeriod)
	spec.Seed = *seed
	g, err := pdn.Generate(spec)
	if err != nil {
		return err
	}
	if err := g.Tune(*ir, *viaCur); err != nil {
		return err
	}
	if err := writeOutput(*out, g.Netlist.Write); err != nil {
		return err
	}
	imax, irGot, err := g.MaxViaCurrent()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d via arrays, nominal IR %.2f%%, busiest array %.2f mA\n",
		spec.Name, len(g.Vias), irGot*100, imax*1e3)
	return nil
}

func cmdIRDrop(args []string) error {
	fs := flag.NewFlagSet("irdrop", flag.ExitOnError)
	deck := fs.String("deck", "", "SPICE deck path (required)")
	vdd := fs.Float64("vdd", 1.8, "supply voltage for IR percentages")
	worst := fs.Int("worst", 10, "how many worst nodes to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	if *deck == "" {
		return fmt.Errorf("irdrop: -deck is required")
	}
	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	defer f.Close()
	nl, err := spice.Parse(f)
	if err != nil {
		return err
	}
	c, err := spice.Compile(nl)
	if err != nil {
		return err
	}
	op, err := c.SolveDC()
	if err != nil {
		return err
	}
	type nodeDrop struct {
		name string
		v    float64
	}
	drops := make([]nodeDrop, 0, c.NumNodes())
	for i := 0; i < c.NumNodes(); i++ {
		drops = append(drops, nodeDrop{c.NodeName(i), op.VoltageAt(i)})
	}
	sort.Slice(drops, func(i, j int) bool { return drops[i].v < drops[j].v })
	fmt.Printf("%d nodes, %d resistors; worst IR drop %.3f%% of Vdd=%g\n",
		c.NumNodes(), c.NumResistors(), op.WorstIRDropFrac(*vdd)*100, *vdd)
	n := *worst
	if n > len(drops) {
		n = len(drops)
	}
	fmt.Printf("%-20s %12s %10s\n", "node", "voltage (V)", "drop (%)")
	for _, d := range drops[:n] {
		fmt.Printf("%-20s %12.6f %10.3f\n", d.name, d.v, (*vdd-d.v) / *vdd * 100)
	}
	return nil
}

func parseList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := spice.ParseValue(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	arrays := fs.String("arrays", "1,4,8", "via-array configurations n (n×n), comma-separated")
	widths := fs.String("widths", "2u,2.5u,3u", "wire widths with SPICE suffixes, comma-separated")
	out := fs.String("out", "", "output JSON path (default stdout)")
	fem := femFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	ns, err := parseIntList(*arrays)
	if err != nil {
		return fmt.Errorf("characterize: -arrays: %w", err)
	}
	ws, err := parseList(*widths)
	if err != nil {
		return fmt.Errorf("characterize: -widths: %w", err)
	}
	a, err := fem()
	if err != nil {
		return fmt.Errorf("characterize: %w", err)
	}
	slices.Sort(ns)
	slices.Sort(ws)
	ns, ws = slices.Compact(ns), slices.Compact(ws)
	// Pattern and layer pair never decide whether an array fits its wire,
	// so checking each (n, width) once catches every bad structure before
	// the first solve.
	for _, n := range ns {
		for _, w := range ws {
			p := a.Base
			p.ArrayN, p.WireWidth = n, w
			if _, err := p.Validate(); err != nil {
				return fmt.Errorf("characterize: %d×%d array at width %.2g µm: %w", n, n, w/phys.Micron, err)
			}
		}
	}
	// The loop order is the table's sort order: LayerPairs and Patterns
	// are listed ascending, ns and ws were sorted above.
	type entry struct {
		LowerClass int         `json:"lower_class"`
		UpperClass int         `json:"upper_class"`
		Pattern    int         `json:"pattern"`
		ArrayN     int         `json:"array_n"`
		WireWidth  float64     `json:"wire_width_m"`
		Sigma      [][]float64 `json:"sigma_pa"`
	}
	var table []entry
	for _, lp := range cudd.LayerPairs() {
		for _, pat := range cudd.Patterns() {
			for _, n := range ns {
				for _, w := range ws {
					name := fmt.Sprintf("%v/%v/%d×%d", lp, pat, n, n)
					fmt.Fprintf(os.Stderr, "FEA %s at width %.2g um\n", name, w/phys.Micron)
					sigma, err := a.StressFor(pat, lp, n, w)
					if err != nil {
						return fmt.Errorf("characterize: %s at width %.2g µm: %w", name, w/phys.Micron, err)
					}
					table = append(table, entry{int(lp.Lower), int(lp.Upper), int(pat), n, w, sigma})
				}
			}
		}
	}
	return writeOutput(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(table)
	})
}

// parseArrayCriterion maps the CLI spelling to a criterion.
func parseArrayCriterion(s string) (core.ArrayCriterion, error) {
	switch s {
	case "wl":
		return core.ArrayWeakestLink(), nil
	case "2x":
		return core.ArrayResistance2x(), nil
	case "rinf":
		return core.ArrayOpenCircuit(), nil
	}
	return core.ArrayCriterion{}, fmt.Errorf("unknown array criterion %q (want wl, 2x or rinf)", s)
}

func cmdCharModels(args []string) error {
	fs := flag.NewFlagSet("charmodels", flag.ExitOnError)
	arrayN := fs.Int("array", 4, "via-array configuration n (n×n)")
	arrayCrit := fs.String("arraycrit", "rinf", "via-array failure criterion: wl, 2x, rinf")
	width := fs.String("width", "2u", "wire width (SPICE suffixes)")
	trials := fs.Int("trials", 500, "Monte-Carlo trials")
	seed := fs.Int64("seed", 2017, "random seed")
	out := fs.String("out", "", "output JSON path (default stdout)")
	fem := femFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	ac, err := parseArrayCriterion(*arrayCrit)
	if err != nil {
		return fmt.Errorf("charmodels: %w", err)
	}
	w, err := spice.ParseValue(*width)
	if err != nil {
		return fmt.Errorf("charmodels: -width: %w", err)
	}
	a, err := fem()
	if err != nil {
		return fmt.Errorf("charmodels: %w", err)
	}
	models, err := a.ViaArrayModels(*arrayN, w, 1e10, ac, *trials, *seed)
	if err != nil {
		return err
	}
	set := viaarray.ModelSet{ArrayN: *arrayN, FailK: ac.FailK(*arrayN), Models: models}
	return writeOutput(*out, set.Save)
}

func cmdAnalyze(args []string, engineFlag string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	deck := fs.String("deck", "", "SPICE deck path (required; node names n<layer>_<x>_<y>)")
	models := fs.String("models", "", "precomputed via-array model set JSON (skips FEA + characterization)")
	arrayN := fs.Int("array", 4, "via-array configuration n (n×n)")
	arrayCrit := fs.String("arraycrit", "rinf", "via-array failure criterion: wl, 2x, rinf")
	sysCrit := fs.String("syscrit", "ir", "system failure criterion: wl, ir")
	irFrac := fs.Float64("irfrac", 0.10, "IR-drop threshold, fraction of Vdd")
	vdd := fs.Float64("vdd", 1.8, "supply voltage")
	trials := fs.Int("trials", 500, "Monte-Carlo trials (both levels)")
	seed := fs.Int64("seed", 2017, "random seed")
	screenOut := fs.String("screenout", "", "write the steady-state screen classification JSON here (engines steady/both)")
	fem := femFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	engine, err := mc.ParseEngine(engineFlag)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if *deck == "" {
		return fmt.Errorf("analyze: -deck is required")
	}
	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	defer f.Close()
	spec := pdn.PG1Spec()
	spec.Vdd = *vdd
	g, err := pdn.LoadDeck(f, spec)
	if err != nil {
		return err
	}

	ac, err := parseArrayCriterion(*arrayCrit)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	sc, err := pdn.ParseCriterion(*sysCrit)
	if err != nil {
		return fmt.Errorf("analyze: unknown -syscrit %q", *sysCrit)
	}

	a, err := fem()
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if engine == mc.EngineSteady {
		// Screening-only backend: one pristine solve plus one linear walk,
		// no characterization, no Monte Carlo.
		_, screen, err := pdn.Analyze(context.Background(), pdn.TTFConfig{Grid: g}, pdn.ScreenConfig{EM: a.EM}, mc.Options{Engine: engine})
		if err != nil {
			return err
		}
		cliobs.RecordScreen(screen.Info())
		if err := writeScreenJSON(*screenOut, g, screen); err != nil {
			return err
		}
		printScreen(g, screen)
		return nil
	}
	analysis := core.GridAnalysis{
		Grid:            g,
		ArrayN:          *arrayN,
		ArrayCriterion:  ac,
		SystemCriterion: sc,
		IRDropFrac:      *irFrac,
		CharTrials:      *trials,
		GridTrials:      *trials,
		Seed:            *seed,
		Engine:          engine,
	}
	var rep *core.GridReport
	crit := ac.String()
	if *models != "" {
		mf, err := os.Open(*models)
		if err != nil {
			return err
		}
		set, err := viaarray.LoadModelSet(mf)
		mf.Close()
		if err != nil {
			return err
		}
		// The set was fitted for its own criterion; -arraycrit does not apply.
		analysis.ArrayN = set.ArrayN
		crit = fmt.Sprintf("n_F=%d of %d vias (model set)", set.FailK, set.ArrayN*set.ArrayN)
		rep, err = a.AnalyzeGridWithModels(analysis, set.Models)
		if err != nil {
			return err
		}
	} else {
		var err error
		rep, err = a.AnalyzeGrid(analysis)
		if err != nil {
			return err
		}
	}
	fmt.Printf("grid: %d via arrays; via config %dx%d; array criterion %s; system criterion %v\n",
		len(g.Vias), analysis.ArrayN, analysis.ArrayN, crit, sc)
	if rep.Screen != nil {
		cliobs.RecordScreen(rep.Screen.Info())
		if err := writeScreenJSON(*screenOut, g, rep.Screen); err != nil {
			return err
		}
		fmt.Printf("  steady screen: %d/%d via arrays mortal (%.1f%%); Monte Carlo pruned to the mortal subset\n",
			rep.Screen.MortalVias, rep.Screen.Vias, 100*rep.Screen.MortalViaFraction())
	}
	for _, p := range []float64{0.003, 0.25, 0.5, 0.75, 0.997} {
		fmt.Printf("  %6.3g%%ile TTF: %7.2f years\n", p*100, rep.PercentileYears(p))
	}
	if inf := len(rep.MC.TTF) - rep.TTF.Len(); inf > 0 {
		fmt.Printf("  (%d of %d trials never reached the criterion)\n", inf, len(rep.MC.TTF))
	}
	return nil
}

// printScreen reports an -engine=steady classification: the headline counts
// and the tightest margins on each side of the mortality frontier.
func printScreen(g *pdn.Grid, s *pdn.GridScreen) {
	fmt.Printf("steady screen: %d via arrays: %d mortal (%.1f%%), %d immortal\n",
		s.Vias, s.MortalVias, 100*s.MortalViaFraction(), s.Vias-s.MortalVias)
	fmt.Printf("  wire segments: %d mortal of %d; σ_crit %.0f MPa, via pre-stress σ_T %.0f MPa\n",
		s.MortalSegments, s.Segments, s.SigmaCritVia/1e6, s.SigmaTVia/1e6)
	idx := make([]int, s.Vias)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(s.ViaMargin[idx[a]]) < math.Abs(s.ViaMargin[idx[b]])
	})
	n := 10
	if n > len(idx) {
		n = len(idx)
	}
	fmt.Printf("  tightest margins (Pa-frontier arrays):\n")
	fmt.Printf("  %-10s %-14s %10s %12s %8s\n", "array", "pattern", "σ (MPa)", "margin (MPa)", "verdict")
	for _, k := range idx[:n] {
		verdict := "immortal"
		if s.ViaMortal[k] {
			verdict = "mortal"
		}
		v := g.Vias[k]
		fmt.Printf("  (%3d,%3d)  %-14s %10.1f %12.1f %8s\n",
			v.IX, v.IY, v.Pattern, s.ViaStress[k]/1e6, s.ViaMargin[k]/1e6, verdict)
	}
}

// writeScreenJSON writes the full per-array classification as the
// -screenout result artifact and registers it with the run manifest.
func writeScreenJSON(path string, g *pdn.Grid, s *pdn.GridScreen) error {
	if path == "" {
		return nil
	}
	type arrayJSON struct {
		IX       int     `json:"ix"`
		IY       int     `json:"iy"`
		Pattern  string  `json:"pattern"`
		StressPa float64 `json:"stress_pa"`
		MarginPa float64 `json:"margin_pa"`
		Mortal   bool    `json:"mortal"`
	}
	out := struct {
		Vias           int         `json:"vias"`
		MortalVias     int         `json:"mortal_vias"`
		Segments       int         `json:"segments"`
		MortalSegments int         `json:"mortal_segments"`
		SigmaCritViaPa float64     `json:"sigma_crit_via_pa"`
		SigmaTViaPa    float64     `json:"sigma_t_via_pa"`
		Arrays         []arrayJSON `json:"arrays"`
	}{
		Vias:           s.Vias,
		MortalVias:     s.MortalVias,
		Segments:       s.Segments,
		MortalSegments: s.MortalSegments,
		SigmaCritViaPa: s.SigmaCritVia,
		SigmaTViaPa:    s.SigmaTVia,
	}
	for k, v := range g.Vias {
		out.Arrays = append(out.Arrays, arrayJSON{
			IX: v.IX, IY: v.IY, Pattern: v.Pattern.String(),
			StressPa: s.ViaStress[k], MarginPa: s.ViaMargin[k], Mortal: s.ViaMortal[k],
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	cliobs.RecordArtifact(path)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func cmdXSection(args []string) error {
	fs := flag.NewFlagSet("xsection", flag.ExitOnError)
	arrayN := fs.Int("array", 4, "via-array configuration n (n×n)")
	pattern := fs.String("pattern", "plus", "intersection pattern: plus, t, l")
	width := fs.String("width", "2u", "wire width (SPICE suffixes)")
	spacing := fs.String("spacing", "0", "minimum via spacing (0 = equal-area geometry)")
	px := fs.Int("px", 800, "image width in pixels")
	out := fs.String("out", "", "output SVG path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	p := cudd.DefaultParams()
	p.ArrayN = *arrayN
	pat, err := cudd.ParsePattern(*pattern)
	if err != nil {
		return fmt.Errorf("xsection: unknown pattern %q", *pattern)
	}
	p.Pattern = pat
	w, err := spice.ParseValue(*width)
	if err != nil {
		return fmt.Errorf("xsection: -width: %w", err)
	}
	p.WireWidth = w
	sp, err := spice.ParseValue(*spacing)
	if err != nil {
		return fmt.Errorf("xsection: -spacing: %w", err)
	}
	p.ViaSpacing = sp
	// Finer in-array resolution renders crisper via outlines.
	if v, err := p.Validate(); err == nil {
		p.StepArray = v.ViaSide() / 2
	}
	return writeOutput(*out, func(w io.Writer) error {
		return cudd.WriteStructureSVG(w, p, *px)
	})
}

func cmdHotspots(args []string) error {
	fs := flag.NewFlagSet("hotspots", flag.ExitOnError)
	deck := fs.String("deck", "", "SPICE deck path (required)")
	models := fs.String("models", "", "precomputed via-array model set JSON (required)")
	irFrac := fs.Float64("irfrac", 0.10, "IR-drop threshold, fraction of Vdd")
	vdd := fs.Float64("vdd", 1.8, "supply voltage")
	trials := fs.Int("trials", 500, "Monte-Carlo trials")
	seed := fs.Int64("seed", 2017, "random seed")
	top := fs.Int("top", 15, "how many hotspots to list")
	irmap := fs.String("irmap", "", "also write the nominal IR-drop heatmap SVG here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	if *deck == "" || *models == "" {
		return fmt.Errorf("hotspots: -deck and -models are required")
	}
	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	defer f.Close()
	spec := pdn.PG1Spec()
	spec.Vdd = *vdd
	g, err := pdn.LoadDeck(f, spec)
	if err != nil {
		return err
	}
	mf, err := os.Open(*models)
	if err != nil {
		return err
	}
	set, err := viaarray.LoadModelSet(mf)
	mf.Close()
	if err != nil {
		return err
	}
	if *irmap != "" {
		// The heatmap needs the lattice dimensions; infer from via extremes.
		maxX, maxY := 0, 0
		for _, v := range g.Vias {
			if v.IX > maxX {
				maxX = v.IX
			}
			if v.IY > maxY {
				maxY = v.IY
			}
		}
		g.Spec.NX, g.Spec.NY = maxX+1, maxY+1
		mf, err := os.Create(*irmap)
		if err != nil {
			return err
		}
		if err := g.WriteIRDropSVG(mf, 640); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *irmap)
	}
	res, _, err := pdn.Analyze(context.Background(), pdn.TTFConfig{
		Grid: g, Models: set.Models, Criterion: pdn.IRDrop, IRDropFrac: *irFrac,
	}, pdn.ScreenConfig{}, mc.Options{Trials: *trials, Seed: *seed})
	if err != nil {
		return err
	}
	rep, err := pdn.CriticalityReport(g, res, *top)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-14s %14s %14s\n", "array", "pattern", "first-failures", "involvements")
	for _, e := range rep {
		fmt.Printf("(%3d,%3d)  %-14s %14d %14d\n", e.Via.IX, e.Via.IY, e.Via.Pattern, e.FirstFailures, e.Involvements)
	}
	return nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	pattern := fs.String("pattern", "plus", "intersection pattern: plus, t, l")
	width := fs.String("width", "2u", "wire width (SPICE suffixes)")
	spacing := fs.String("spacing", "0", "minimum via spacing rule")
	crit := fs.String("arraycrit", "2x", "array failure criterion: wl, 2x, rinf")
	trials := fs.Int("trials", 500, "Monte-Carlo trials per candidate")
	seed := fs.Int64("seed", 2017, "random seed")
	fem := femFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cliobs.RecordFlags(fs)
	pat, err := cudd.ParsePattern(*pattern)
	if err != nil {
		return fmt.Errorf("optimize: unknown pattern %q", *pattern)
	}
	w, err := spice.ParseValue(*width)
	if err != nil {
		return fmt.Errorf("optimize: -width: %w", err)
	}
	sp, err := spice.ParseValue(*spacing)
	if err != nil {
		return fmt.Errorf("optimize: -spacing: %w", err)
	}
	ac, err := parseArrayCriterion(*crit)
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	a, err := fem()
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	choices, best, err := a.OptimizeArray(core.OptimizeArraySpec{
		Pattern:    pat,
		WireWidth:  w,
		ViaSpacing: sp,
		Criterion:  ac,
		Trials:     *trials,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12s %14s %12s %s\n", "config", "extent (um)", "worst-case (y)", "median (y)", "note")
	for i, c := range choices {
		if !c.Feasible {
			fmt.Printf("%dx%-5d %12s %14s %12s %s\n", c.ArrayN, c.ArrayN, "-", "-", "-", c.Reason)
			continue
		}
		note := ""
		if i == best {
			note = "<== best"
		}
		fmt.Printf("%dx%-5d %12.2f %14.2f %12.2f %s\n",
			c.ArrayN, c.ArrayN, c.ExtentM/phys.Micron*1, c.WorstCaseYears, c.MedianYears, note)
	}
	return nil
}
