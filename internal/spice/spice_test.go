package spice

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1}, {"1.5", 1.5}, {"-2e-3", -2e-3},
		{"1k", 1e3}, {"2.2K", 2.2e3}, {"5m", 5e-3}, {"3MEG", 3e6},
		{"10u", 1e-5}, {"7n", 7e-9}, {"4p", 4e-12}, {"1f", 1e-15},
		{"2g", 2e9}, {"1t", 1e12},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	if _, err := ParseValue("xyz"); err == nil {
		t.Error("accepted garbage value")
	}
}

const deck = `* test power grid fragment
R1 n1_0_0 n1_1_0 0.5
R2 n1_1_0 n1_2_0 0.5
r3 n1_2_0 0 1k
V1 n1_0_0 0 1.8
i1 n1_1_0 0 100m
.op
.end
`

func TestParseDeck(t *testing.T) {
	nl, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Resistors) != 3 || len(nl.Voltages) != 1 || len(nl.Currents) != 1 {
		t.Fatalf("counts R=%d V=%d I=%d", len(nl.Resistors), len(nl.Voltages), len(nl.Currents))
	}
	if nl.Resistors[2].Ohms != 1000 {
		t.Errorf("r3 = %g, want 1000", nl.Resistors[2].Ohms)
	}
	if nl.Currents[0].Amps != 0.1 {
		t.Errorf("i1 = %g, want 0.1", nl.Currents[0].Amps)
	}
	nodes := nl.Nodes()
	if len(nodes) != 3 {
		t.Errorf("nodes = %v, want 3 non-ground", nodes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"R1 a b\n",       // too few fields
		"R1 a b -1\n",    // negative resistance
		"R1 a b 0\n",     // zero resistance
		"Q1 a b c 1\n",   // unsupported element
		"V1 a b 1.8\n",   // non-ground voltage source
		".tran 1n 10n\n", // unsupported directive
		"R1 a b zzz\n",   // bad value
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", strings.TrimSpace(c))
		}
	}
}

func TestParseGroundOnEitherVTerminal(t *testing.T) {
	nl, err := Parse(strings.NewReader("V1 0 pad 1.8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Voltages[0].Node != "pad" || nl.Voltages[0].Volts != -1.8 {
		t.Errorf("flipped V source = %+v", nl.Voltages[0])
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	nl, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	nl.Title = "round trip"
	if err := nl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(back.Resistors) != len(nl.Resistors) ||
		len(back.Currents) != len(nl.Currents) ||
		len(back.Voltages) != len(nl.Voltages) {
		t.Error("round trip changed element counts")
	}
}

// voltage divider: 1.8 V pad, two 1 Ω in series to ground.
const dividerDeck = `V1 top 0 1.8
R1 top mid 1
R2 mid 0 1
.op
`

func TestSolveDCVoltageDivider(t *testing.T) {
	nl, err := Parse(strings.NewReader(dividerDeck))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	v, err := op.Voltage("mid")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.9) > 1e-6 {
		t.Errorf("divider mid = %g, want 0.9", v)
	}
	vt, _ := op.Voltage("top")
	if vt != 1.8 {
		t.Errorf("pad voltage = %g, want 1.8", vt)
	}
	// Current through R1: (1.8−0.9)/1 = 0.9 A, from top to mid.
	if i := op.ResistorCurrent(0); math.Abs(i-0.9) > 1e-6 {
		t.Errorf("R1 current = %g, want 0.9", i)
	}
}

func TestSolveDCCurrentLoad(t *testing.T) {
	// Pad 1.0 V — R 0.5 Ω — node with 1 A load: node sits at 0.5 V.
	src := `V1 pad 0 1.0
R1 pad n 0.5
I1 n 0 1
.op
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.Voltage("n")
	if math.Abs(v-0.5) > 1e-6 {
		t.Errorf("loaded node = %g V, want 0.5", v)
	}
	if frac := op.WorstIRDropFrac(1.0); math.Abs(frac-0.5) > 1e-6 {
		t.Errorf("worst IR drop = %g, want 0.5", frac)
	}
}

// TestSetAndDisableResistor changes a resistor value with WithResistances
// and opens one with Open, checking each derived circuit's answer on the
// divider and that bad indices and values are refused.
func TestSetAndDisableResistor(t *testing.T) {
	nl, err := Parse(strings.NewReader(dividerDeck))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Double R2 → mid = 1.8·2/3 = 1.2.
	doubled, err := c.WithResistances([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	op, err := doubled.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := op.Voltage("mid")
	if math.Abs(v-1.2) > 1e-6 {
		t.Errorf("mid with R2 doubled = %g, want 1.2", v)
	}
	// Open R2 → mid floats up to pad voltage (through R1, no load).
	opened, err := c.Open([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	op, err = opened.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	v, _ = op.Voltage("mid")
	if math.Abs(v-1.8) > 1e-4 {
		t.Errorf("mid after open = %g, want ≈1.8", v)
	}
	if i := op.ResistorCurrent(1); i != 0 {
		t.Errorf("open resistor current = %g, want 0", i)
	}
	// Bad indices and values.
	if _, err := c.Open([]int{-1}); err == nil {
		t.Error("accepted negative index")
	}
	if _, err := c.WithResistances([]float64{1, 0}); err == nil {
		t.Error("accepted zero resistance")
	}
	if _, err := c.WithResistances([]float64{1}); err == nil {
		t.Error("accepted a short resistance list")
	}
	if _, err := c.Open([]int{99}); err == nil {
		t.Error("accepted out-of-range open")
	}
}

// TestIslandedNodeDrainsToZero solves a deck with an island built in: nodes
// n and m are joined to each other but to no pad, so only the gmin leak
// holds them and the load on n pulls them far below the pad — flagging a
// catastrophic IR drop — while the connected node stays healthy.
func TestIslandedNodeDrainsToZero(t *testing.T) {
	src := `V1 pad 0 1.0
R1 pad a 1
I1 a 0 0.01
R2 n m 1
I2 n 0 0.1
.op
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n", "m"} {
		v, _ := op.Voltage(node)
		if v > 0.01 && !math.IsInf(v, 0) {
			// gmin island: voltage = −I/gmin is hugely negative, or ~0 without
			// load path. Either way it must not look healthy.
			t.Errorf("islanded node %s voltage = %g, want far below pad", node, v)
		}
	}
	if v, _ := op.Voltage("a"); math.Abs(v-0.99) > 1e-9 {
		t.Errorf("connected node a = %g, want 0.99", v)
	}
	if frac := op.WorstIRDropFrac(1.0); frac < 0.99 {
		t.Errorf("islanded IR drop frac = %g, want ≈ or > 1", frac)
	}
}

func TestCompileConflictingPads(t *testing.T) {
	src := "V1 a 0 1.8\nV2 a 0 1.5\nR1 a 0 1\n"
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(nl); err == nil {
		t.Error("accepted conflicting pad voltages")
	}
}

// TestRejectsInvalidResistance checks that zero, negative and non-finite
// resistances are refused — naming the resistor — before they reach the
// conductance stamp, both from a programmatic netlist and as a value change.
func TestRejectsInvalidResistance(t *testing.T) {
	for _, ohms := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		nl := &Netlist{
			Resistors: []Resistor{{Name: "Rgood", A: "pad", B: "n", Ohms: 1}, {Name: "Rbad", A: "n", B: "0", Ohms: ohms}},
			Voltages:  []VoltageSource{{Name: "V1", Node: "pad", Volts: 1}},
		}
		_, err := Compile(nl)
		if err == nil || !strings.Contains(err.Error(), "Rbad") {
			t.Errorf("Compile with %g Ω returned %v, want an error naming Rbad", ohms, err)
		}
	}
	nl, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, ohms := range []float64{math.NaN(), math.Inf(1)} {
		values := make([]float64, len(nl.Resistors))
		for i, r := range nl.Resistors {
			values[i] = r.Ohms
		}
		values[1] = ohms
		_, err := c.WithResistances(values)
		if err == nil || !strings.Contains(err.Error(), "R2") {
			t.Errorf("WithResistances with %g Ω returned %v, want an error naming R2", ohms, err)
		}
	}
}
