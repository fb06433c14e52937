package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/telemetry"
	"emvia/internal/viaarray"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// fn printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestGenIRDropSteadyAnalyze drives the gen → irdrop → analyze -engine
// steady pipeline on an 8×8 deck and checks the -screenout classification
// against pdn.Analyze's steady screen of the same deck.
func TestGenIRDropSteadyAnalyze(t *testing.T) {
	dir := t.TempDir()
	deck := filepath.Join(dir, "vg.sp")
	screenOut := filepath.Join(dir, "screen.json")

	if err := cmdGen([]string{"-name", "VG", "-nx", "8", "-ny", "8", "-padperiod", "3", "-ir", "0.05", "-out", deck}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	ir := captureStdout(t, func() error { return cmdIRDrop([]string{"-deck", deck, "-vdd", "1.8"}) })
	if !strings.Contains(ir, "worst IR drop") {
		t.Errorf("irdrop printed no IR-drop summary:\n%s", ir)
	}
	captureStdout(t, func() error {
		return cmdAnalyze([]string{"-deck", deck, "-fast", "-screenout", screenOut}, "steady")
	})

	buf, err := os.ReadFile(screenOut)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Vias       int `json:"vias"`
		MortalVias int `json:"mortal_vias"`
		Arrays     []struct {
			Mortal bool `json:"mortal"`
		} `json:"arrays"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("decoding -screenout: %v", err)
	}

	g := loadDeck(t, deck)
	a, err := core.NewCLIAnalyzer(true, "")
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := pdn.Analyze(context.Background(), pdn.TTFConfig{Grid: g}, pdn.ScreenConfig{EM: a.EM}, mc.Options{Engine: mc.EngineSteady})
	if err != nil {
		t.Fatal(err)
	}

	if got.MortalVias != want.MortalVias || got.Vias != want.Vias {
		t.Errorf("-screenout mortal_vias %d of %d, pdn.Analyze steady screen %d of %d",
			got.MortalVias, got.Vias, want.MortalVias, want.Vias)
	}
	if len(got.Arrays) != len(want.ViaMortal) {
		t.Fatalf("-screenout lists %d arrays, want %d", len(got.Arrays), len(want.ViaMortal))
	}
	for k, arr := range got.Arrays {
		if arr.Mortal != want.ViaMortal[k] {
			t.Errorf("array %d: -screenout mortal=%v, screen %v", k, arr.Mortal, want.ViaMortal[k])
		}
	}
	t.Logf("%d of %d via arrays mortal", got.MortalVias, got.Vias)
}

// loadDeck reads a deck as the subcommands do at their default -vdd.
func loadDeck(t *testing.T, deck string) *pdn.Grid {
	t.Helper()
	f, err := os.Open(deck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec := pdn.PG1Spec()
	spec.Vdd = 1.8
	g, err := pdn.LoadDeck(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCharModelsAnalyzeHotspots drives charmodels → analyze -models →
// hotspots -models on an 8×8 deck: the percentiles analyze prints are
// core.AnalyzeGridWithModels's on the loaded model set, the array criterion
// it prints is the set's FailK whatever -arraycrit says, and hotspots lists
// at most -top arrays, none failing first in more trials than ran.
func TestCharModelsAnalyzeHotspots(t *testing.T) {
	dir := t.TempDir()
	deck := filepath.Join(dir, "vg.sp")
	models := filepath.Join(dir, "models.json")
	const trials = 50
	if err := cmdGen([]string{"-name", "VG", "-nx", "8", "-ny", "8", "-padperiod", "3", "-ir", "0.05", "-out", deck}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdCharModels([]string{"-fast", "-array", "2", "-trials", strconv.Itoa(trials), "-out", models}); err != nil {
		t.Fatalf("charmodels: %v", err)
	}
	// -arraycrit names a criterion the set was not fitted for: analyze must
	// report the set's own n_F (R=inf on 2x2: all 4 vias).
	out := captureStdout(t, func() error {
		return cmdAnalyze([]string{"-deck", deck, "-models", models, "-arraycrit", "wl", "-fast", "-trials", strconv.Itoa(trials)}, "mc")
	})

	mf, err := os.Open(models)
	if err != nil {
		t.Fatal(err)
	}
	set, err := viaarray.LoadModelSet(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if set.ArrayN != 2 {
		t.Fatalf("model set is for %dx%d arrays, want 2x2", set.ArrayN, set.ArrayN)
	}
	if want := fmt.Sprintf("array criterion n_F=%d of 4 vias (model set);", set.FailK); set.FailK != 4 || !strings.Contains(out, want) {
		t.Errorf("model set FailK %d; analyze output lacks %q:\n%s", set.FailK, want, out)
	}
	a, err := core.NewCLIAnalyzer(true, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.AnalyzeGridWithModels(core.GridAnalysis{
		Grid:            loadDeck(t, deck),
		ArrayN:          set.ArrayN,
		ArrayCriterion:  core.ArrayOpenCircuit(),
		SystemCriterion: pdn.IRDrop,
		IRDropFrac:      0.10,
		CharTrials:      trials,
		GridTrials:      trials,
		Seed:            2017,
		Engine:          mc.EngineMC,
	}, set.Models)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.003, 0.25, 0.5, 0.75, 0.997} {
		want := fmt.Sprintf("  %6.3g%%ile TTF: %7.2f years\n", p*100, rep.PercentileYears(p))
		if !strings.Contains(out, want) {
			t.Errorf("analyze output lacks %q:\n%s", want, out)
		}
	}

	hot := captureStdout(t, func() error {
		return cmdHotspots([]string{"-deck", deck, "-models", models, "-top", "3", "-trials", strconv.Itoa(trials)})
	})
	rows := strings.Split(strings.TrimSpace(hot), "\n")[1:] // after the header
	if len(rows) == 0 || len(rows) > 3 {
		t.Fatalf("hotspots -top 3 printed %d rows:\n%s", len(rows), hot)
	}
	for _, row := range rows {
		f := strings.Fields(row)
		first, err := strconv.Atoi(f[len(f)-2])
		if err != nil {
			t.Fatalf("hotspots row %q: %v", row, err)
		}
		if first < 0 || first > trials {
			t.Errorf("hotspots row %q: %d first failures in %d trials", row, first, trials)
		}
	}
}

// withRegistry runs fn under a fresh default telemetry registry and returns
// the registry.
func withRegistry(t *testing.T, fn func()) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn()
	return reg
}

// TestCharacterizeCampaign: a duplicated axis solves each of the 9
// structures (3 layer pairs × 3 patterns) once and writes the table of the
// deduplicated axes; a second run over the warm stress cache reads all 9
// from disk and solves none.
func TestCharacterizeCampaign(t *testing.T) {
	args := []string{"-fast", "-arrays", "1,1", "-widths", "2u,2u", "-stresscache", t.TempDir()}
	var out string
	reg := withRegistry(t, func() {
		out = captureStdout(t, func() error { return cmdCharacterize(args) })
	})
	var entries []json.RawMessage
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Errorf("%d table entries, want 9", len(entries))
	}
	if n := reg.Counter(telemetry.FEMSolves).Value(); n != 9 {
		t.Errorf("fem.solves = %d, want 9", n)
	}
	// The digest pins the table's format and its stresses bit for bit. It
	// is checked on amd64 only: FMA fusion on other architectures may move
	// the last bits of the FEA.
	const want = "49353d68446b1da31052daf316383e6b4a32c3f28372f46604117d31e2c58937"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); runtime.GOARCH == "amd64" && got != want {
		t.Errorf("table sha256 %s, want %s", got, want)
	}

	var warm string
	reg = withRegistry(t, func() {
		warm = captureStdout(t, func() error { return cmdCharacterize(args) })
	})
	if warm != out {
		t.Error("warm-cache table differs from the cold one")
	}
	if hits, solves := reg.Counter(telemetry.StressDiskHits).Value(), reg.Counter(telemetry.FEMSolves).Value(); hits != 9 || solves != 0 {
		t.Errorf("warm run: %d disk hits and %d FEA solves, want 9 and 0", hits, solves)
	}
}

// TestCharacterizeValidatesBeforeFEA: an array too wide for one of the
// wire widths fails the campaign before its first solve, naming the array
// and the width.
func TestCharacterizeValidatesBeforeFEA(t *testing.T) {
	var err error
	reg := withRegistry(t, func() {
		err = cmdCharacterize([]string{"-fast", "-arrays", "1,4", "-widths", "2u,0.9u"})
	})
	if err == nil || !strings.Contains(err.Error(), "1×1") || !strings.Contains(err.Error(), "0.9") {
		t.Errorf("err %v, want one naming the 1×1 array at width 0.9 µm", err)
	}
	if n := reg.Counter(telemetry.FEMSolves).Value(); n != 0 {
		t.Errorf("fem.solves = %d before the error, want 0", n)
	}
}

// TestCharModelsFailK: each -arraycrit spelling resolves to its n_F on a 4×4
// array, and the written set carries that n_F in its header and in every
// model.
func TestCharModelsFailK(t *testing.T) {
	cache := t.TempDir()
	for _, c := range []struct {
		crit string
		want int
	}{{"wl", 1}, {"2x", 8}, {"rinf", 16}} {
		ac, err := parseArrayCriterion(c.crit)
		if err != nil {
			t.Fatal(err)
		}
		if got := ac.FailK(4); got != c.want {
			t.Errorf("%s: FailK(4) = %d, want %d", c.crit, got, c.want)
		}
		path := filepath.Join(t.TempDir(), "models.json")
		if err := cmdCharModels([]string{"-fast", "-array", "4", "-arraycrit", c.crit, "-trials", "30", "-stresscache", cache, "-out", path}); err != nil {
			t.Fatalf("%s: %v", c.crit, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		set, err := viaarray.LoadModelSet(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if set.FailK != c.want {
			t.Errorf("%s: set fail_k %d, want %d", c.crit, set.FailK, c.want)
		}
		for pat, m := range set.Models {
			if m.FailK != set.FailK {
				t.Errorf("%s: %v model fail_k %d, set fail_k %d", c.crit, pat, m.FailK, set.FailK)
			}
		}
	}
}

// TestEngineOnlyForAnalyze: every subcommand but analyze refuses a global
// -engine other than mc, naming itself, before it does any work.
func TestEngineOnlyForAnalyze(t *testing.T) {
	for name := range subcommands {
		for _, engine := range []string{mc.EngineSteady, mc.EngineBoth} {
			err := runSubcommand(name, nil, engine)
			if err == nil || !strings.HasPrefix(err.Error(), name+": -engine") {
				t.Errorf("%s under -engine %s: err %v, want a refusal naming %s", name, engine, err, name)
			}
		}
	}
	if len(subcommands) != 7 {
		t.Errorf("%d subcommands besides analyze, want 7", len(subcommands))
	}
}
