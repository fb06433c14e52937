package fem

import (
	"fmt"
	"math"

	"emvia/internal/mat"
	"emvia/internal/mesh"
	"emvia/internal/par"
	"emvia/internal/telemetry"
)

// Tensor is a symmetric Cauchy stress tensor in Voigt layout.
type Tensor struct {
	XX, YY, ZZ, XY, YZ, ZX float64
}

// Hydrostatic returns σ_H = (σxx+σyy+σzz)/3, the EM-relevant invariant
// (positive = tensile).
func (t Tensor) Hydrostatic() float64 {
	return (t.XX + t.YY + t.ZZ) / 3
}

// VonMises returns the von Mises equivalent stress, useful for sanity checks
// and visualization.
func (t Tensor) VonMises() float64 {
	d1 := t.XX - t.YY
	d2 := t.YY - t.ZZ
	d3 := t.ZZ - t.XX
	s := 0.5*(d1*d1+d2*d2+d3*d3) + 3*(t.XY*t.XY+t.YZ*t.YZ+t.ZX*t.ZX)
	if s < 0 {
		s = 0
	}
	return math.Sqrt(s)
}

// cellBlock is the number of cells per PrecomputeStress dispatch block.
const cellBlock = 512

// PrecomputeStress recovers and caches the element-centre stress tensor of
// every solid cell, partitioned across workers (0 = the worker count of the
// solve, which itself defaults to GOMAXPROCS). Each cell is computed
// independently from the displacement field, so the cached tensors are
// bit-identical for any worker count. Subsequent StressAt / HydrostaticAt /
// MaxHydrostaticInBox queries read the cache, which removes the repeated
// per-query recovery cost when scan boxes overlap.
func (r *Result) PrecomputeStress(workers int) {
	if r.sig != nil {
		return
	}
	if workers == 0 {
		workers = r.workers
	}
	g := r.model.Grid
	nx, ny, _ := g.CellDims()
	ncells := g.NumCells()
	sig := make([]Tensor, ncells)
	sigOK := make([]bool, ncells)
	stress0 := telemetry.Default().Histogram(telemetry.FEMStressSeconds).Start()
	pool := par.Shared(workers)
	pool.Run(par.Blocks(ncells, cellBlock), func(b int) {
		lo := b * cellBlock
		hi := lo + cellBlock
		if hi > ncells {
			hi = ncells
		}
		for cid := lo; cid < hi; cid++ {
			i := cid % nx
			j := (cid / nx) % ny
			k := cid / (nx * ny)
			sig[cid], sigOK[cid] = r.computeStressAt(i, j, k)
		}
	})
	telemetry.Default().Histogram(telemetry.FEMStressSeconds).ObserveSince(stress0)
	r.sig, r.sigOK = sig, sigOK
}

// StressAt recovers the element-centre stress of cell (i,j,k):
// σ = D·(B·u − ε_th). ok is false for holes (mat.None). After
// PrecomputeStress it is a cache lookup.
func (r *Result) StressAt(i, j, k int) (Tensor, bool) {
	if r.sig != nil {
		cid := r.model.Grid.CellID(i, j, k)
		return r.sig[cid], r.sigOK[cid]
	}
	return r.computeStressAt(i, j, k)
}

func (r *Result) computeStressAt(i, j, k int) (Tensor, bool) {
	g := r.model.Grid
	id := g.Material(i, j, k)
	if id == mat.None {
		return Tensor{}, false
	}
	p, err := mat.Properties(id)
	if err != nil {
		panic(fmt.Sprintf("fem: unreachable: painted cell has unknown material: %v", err))
	}
	dx, dy, dz := g.CellSize(i, j, k)
	grad := shapeGrad(dx, dy, dz, 0, 0, 0)
	nodes := g.CellNodes(i, j, k)

	// Strain at element centre: ε = B·u_e.
	var eps [6]float64
	for a := 0; a < 8; a++ {
		ux := r.U[3*nodes[a]]
		uy := r.U[3*nodes[a]+1]
		uz := r.U[3*nodes[a]+2]
		gx, gy, gz := grad[a][0], grad[a][1], grad[a][2]
		eps[0] += gx * ux
		eps[1] += gy * uy
		eps[2] += gz * uz
		eps[3] += gy*ux + gx*uy
		eps[4] += gz*uy + gy*uz
		eps[5] += gz*ux + gx*uz
	}
	// Subtract thermal strain.
	eth := p.CTE * r.model.DeltaT
	eps[0] -= eth
	eps[1] -= eth
	eps[2] -= eth

	d := elastD(p)
	var sig [6]float64
	for i2 := 0; i2 < 6; i2++ {
		s := 0.0
		for j2 := 0; j2 < 6; j2++ {
			s += d[i2*6+j2] * eps[j2]
		}
		sig[i2] = s
	}
	return Tensor{XX: sig[0], YY: sig[1], ZZ: sig[2], XY: sig[3], YZ: sig[4], ZX: sig[5]}, true
}

// HydrostaticAt returns the element-centre hydrostatic stress of cell
// (i,j,k); ok is false for holes.
func (r *Result) HydrostaticAt(i, j, k int) (float64, bool) {
	t, ok := r.StressAt(i, j, k)
	if !ok {
		return 0, false
	}
	return t.Hydrostatic(), true
}

// MaxHydrostaticInBox scans all cells of the given material whose centres lie
// inside the box and returns the peak (most tensile) hydrostatic stress.
// found is false when no matching cell exists.
func (r *Result) MaxHydrostaticInBox(b mesh.Box, id mat.ID) (peak float64, found bool) {
	g := r.model.Grid
	nx, ny, nz := g.CellDims()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if g.Material(i, j, k) != id {
					continue
				}
				cx, cy, cz := g.CellCenter(i, j, k)
				if !b.Contains(cx, cy, cz) {
					continue
				}
				h, _ := r.HydrostaticAt(i, j, k)
				if !found || h > peak {
					peak = h
					found = true
				}
			}
		}
	}
	return peak, found
}

// LineScanX samples the hydrostatic stress along the x direction at fixed
// (y, z): for each cell column it reports the cell-centre x coordinate and
// σ_H of the cell containing (x, y, z). Cells that are holes are skipped.
func (r *Result) LineScanX(y, z float64) (xs, sigmaH []float64) {
	g := r.model.Grid
	_, j, k, ok := g.FindCell(g.X[0], y, z)
	if !ok {
		return nil, nil
	}
	nx, _, _ := g.CellDims()
	for i := 0; i < nx; i++ {
		h, ok := r.HydrostaticAt(i, j, k)
		if !ok {
			continue
		}
		cx, _, _ := g.CellCenter(i, j, k)
		xs = append(xs, cx)
		sigmaH = append(sigmaH, h)
	}
	return xs, sigmaH
}
