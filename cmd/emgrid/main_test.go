package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/pdn"
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
// core.AnalyzeGridWithModels's on the loaded model set, and hotspots lists
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
	out := captureStdout(t, func() error {
		return cmdAnalyze([]string{"-deck", deck, "-models", models, "-fast", "-trials", strconv.Itoa(trials)}, "mc")
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
