package spice_test

import (
	"fmt"
	"strings"

	"emvia/internal/spice"
)

// Parse a benchmark-dialect fragment, solve the operating point and read
// the worst IR drop — the primitive the grid Monte Carlo repeats after
// every via-array failure.
func ExampleCompile() {
	deck := `* fragment
V1 pad 0 1.8
R1 pad n1_0_0 0.5
R2 n1_0_0 n1_1_0 0.5
I1 n1_1_0 0 100m
.op
.end
`
	nl, err := spice.Parse(strings.NewReader(deck))
	if err != nil {
		panic(err)
	}
	c, err := spice.Compile(nl)
	if err != nil {
		panic(err)
	}
	op, err := c.SolveDC()
	if err != nil {
		panic(err)
	}
	v, _ := op.Voltage("n1_1_0")
	fmt.Printf("load node %.2f V, worst IR drop %.1f%%\n", v, 100*op.WorstIRDropFrac(1.8))
	// Output:
	// load node 1.70 V, worst IR drop 5.6%
}

// SPICE numbers carry scale suffixes; "m" is milli and "MEG" is mega.
func ExampleParseValue() {
	for _, s := range []string{"100m", "2.5k", "3MEG"} {
		v, err := spice.ParseValue(s)
		if err != nil {
			panic(err)
		}
		fmt.Println(s, "=", v)
	}
	// Output:
	// 100m = 0.1
	// 2.5k = 2500
	// 3MEG = 3e+06
}
