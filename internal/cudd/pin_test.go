package cudd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"emvia/internal/fem"
)

// TestFEABitPin pins the coarse-mesh 2×2 FEA solves bit for bit: the FNV-1a
// hash of the displacement bits, the CG iteration count and the bits of
// the final residual, under the automatic (IC(0)) and the Jacobi
// preconditioner. The constants were recorded before the sparse storage
// moved to int32 column indices and IC(0) to a marker-scatter factor; a
// change to any FEA kernel that moves a single bit of U fails here.
func TestFEABitPin(t *testing.T) {
	for _, c := range []struct {
		pat     Pattern
		precond string
		hash    uint64
		iters   int
		resBits uint64
	}{
		{Plus, "auto", 0x21bffa2028dd5d62, 25, 0x3e444337e56e3910},
		{TShape, "auto", 0x28683cee5e50abdd, 26, 0x3e38a17d319405b8},
		{LShape, "auto", 0x5745f31eb375347e, 26, 0x3e4047c27db4f4a4},
		{Plus, "jacobi", 0x822a669cc617811a, 300, 0x3e45161284076e0f},
		{TShape, "jacobi", 0x0bb57caa7c2621f4, 384, 0x3e446bf33f484964},
		{LShape, "jacobi", 0x193fa0ac3e1e4bad, 444, 0x3e41c14396399775},
	} {
		ch, err := Characterize(testParams(2, c.pat), fem.SolveOptions{Precond: c.precond})
		if err != nil {
			t.Fatalf("%v %s: %v", c.pat, c.precond, err)
		}
		res := ch.FEM
		h := fnv.New64a()
		var b [8]byte
		for _, v := range res.U {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("%v %s: U hash %#016x, want %#016x", c.pat, c.precond, got, c.hash)
		}
		if res.Stats.Iterations != c.iters {
			t.Errorf("%v %s: %d CG iterations, want %d", c.pat, c.precond, res.Stats.Iterations, c.iters)
		}
		if got := math.Float64bits(res.Stats.Residual); got != c.resBits {
			t.Errorf("%v %s: residual bits %#016x, want %#016x", c.pat, c.precond, got, c.resBits)
		}
	}
}
