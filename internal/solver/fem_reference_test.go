package solver_test

import (
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/phys"
	"emvia/internal/solver"
)

// TestKernelsMatchReferenceFEM holds the IC(0) factor, its sweeps and the
// CSR product to the reference kernels on the stiffness matrix of a
// coarse-mesh 2×2 Plus via array, the system class the FEA solves.
func TestKernelsMatchReferenceFEM(t *testing.T) {
	p := cudd.DefaultParams()
	p.ArrayN = 2
	p.Pattern = cudd.Plus
	p.Margin = 1.0 * phys.Micron
	p.SubstrateThickness = 0.8 * phys.Micron
	p.StepOutside = 0.5 * phys.Micron
	p.StepZBulk = 1.0 * phys.Micron
	g, p, err := cudd.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	m := fem.NewModel(g, p.DeltaT())
	for _, f := range []fem.Face{fem.XMin, fem.XMax, fem.YMin, fem.YMax} {
		m.SetFaceBC(f, fem.Roller)
	}
	m.SetFaceBC(fem.ZMin, fem.Clamp)
	a, _, err := m.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	solver.CheckReferenceKernels(t, a, 3)
}
