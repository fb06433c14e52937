package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/pdn"
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
