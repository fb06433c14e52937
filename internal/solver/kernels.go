package solver

import (
	"emvia/internal/par"
	"emvia/internal/sparse"
)

// Deterministic parallel kernels for the CG iteration.
//
// Reductions (dot products) are computed over fixed-size blocks whose partial
// sums are written to per-block slots and reduced sequentially in block
// order. The block size is a constant of the algorithm — never derived from
// the worker count — so the floating-point result is bit-identical for any
// number of workers, including the serial path, which runs the exact same
// block loop inline. Elementwise updates (axpy, SpMV rows) have disjoint
// writes per index and are deterministic under any partition.
const (
	// dotBlock is the reduction block length.
	dotBlock = 1024
	// rowBlock is the number of matrix rows per SpMV dispatch block.
	rowBlock = 256
	// vecBlock is the number of vector entries per axpy dispatch block.
	vecBlock = 4096
)

// partialsLen returns the number of dot-product partial slots for dimension n.
func partialsLen(n int) int { return par.Blocks(n, dotBlock) }

// dotRange accumulates Σ a[i]·b[i] over [lo,hi) in index order.
func dotRange(a, b []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// kernCtx holds the pooled CG kernels with their dispatch closures hoisted
// out of the per-iteration path. A closure built per call allocated once per
// dispatch; at tens of CG iterations per solve and four kernel calls per
// iteration that dominated the multi-worker FEA allocation profile (BENCH_3:
// 1728–2076 allocs/op vs 189 serial). The context creates each closure once
// — capturing only the context pointer — and passes operands through fields,
// so steady-state parallel iterations allocate nothing. The serial branches
// run the same block loops inline, so results are bit-identical at any
// worker count.
type kernCtx struct {
	pool *par.Pool

	// Operand fields, set immediately before each dispatch.
	mat              *sparse.CSR
	dx, dy, partials []float64 // dot product
	mvY, mvX         []float64 // SpMV
	ux, ur, up, uap  []float64 // fused iterate/residual update
	alpha, beta      float64

	dotFn, mulFn, updFn, dirFn func(int)
}

// bind points the context at a pool and creates the dispatch closures on
// first parallel use.
func (k *kernCtx) bind(pool *par.Pool) {
	k.pool = pool
	if pool.Workers() == 1 || k.dotFn != nil {
		return
	}
	k.dotFn = func(bi int) {
		n := len(k.dx)
		lo := bi * dotBlock
		hi := lo + dotBlock
		if hi > n {
			hi = n
		}
		k.partials[bi] = dotRange(k.dx, k.dy, lo, hi)
	}
	k.mulFn = func(bi int) {
		rows := len(k.mvY)
		lo := bi * rowBlock
		hi := lo + rowBlock
		if hi > rows {
			hi = rows
		}
		k.mat.MulVecRange(k.mvY, k.mvX, lo, hi)
	}
	k.updFn = func(bi int) {
		n := len(k.ux)
		lo := bi * vecBlock
		hi := lo + vecBlock
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			k.ux[i] += k.alpha * k.up[i]
			k.ur[i] -= k.alpha * k.uap[i]
		}
	}
	k.dirFn = func(bi int) {
		n := len(k.up)
		lo := bi * vecBlock
		hi := lo + vecBlock
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			k.up[i] = k.ur[i] + k.beta*k.up[i]
		}
	}
}

// dot computes the blocked dot product of a and b using partials as the
// per-block scratch (len(partials) == partialsLen(len(a))).
func (k *kernCtx) dot(a, b, partials []float64) float64 {
	n := len(a)
	nb := len(partials)
	if k.pool.Workers() == 1 {
		for bi := 0; bi < nb; bi++ {
			lo := bi * dotBlock
			hi := lo + dotBlock
			if hi > n {
				hi = n
			}
			partials[bi] = dotRange(a, b, lo, hi)
		}
	} else {
		k.dx, k.dy, k.partials = a, b, partials
		k.pool.Run(nb, k.dotFn)
	}
	s := 0.0
	for _, v := range partials {
		s += v
	}
	return s
}

// mul computes y = A·x, row-partitioned across the pool. Row results are
// independent, so the output matches the serial MulVecTo bit for bit.
func (k *kernCtx) mul(a *sparse.CSR, y, x []float64) {
	if k.pool.Workers() == 1 {
		a.MulVecTo(y, x)
		return
	}
	rows, _ := a.Dims()
	k.mat, k.mvY, k.mvX = a, y, x
	k.pool.Run(par.Blocks(rows, rowBlock), k.mulFn)
}

// update applies the fused iterate/residual update x += α·p, r −= α·ap.
func (k *kernCtx) update(x, r, pvec, ap []float64, alpha float64) {
	n := len(x)
	if k.pool.Workers() == 1 {
		for i := 0; i < n; i++ {
			x[i] += alpha * pvec[i]
			r[i] -= alpha * ap[i]
		}
		return
	}
	k.ux, k.ur, k.up, k.uap, k.alpha = x, r, pvec, ap, alpha
	k.pool.Run(par.Blocks(n, vecBlock), k.updFn)
}

// direction updates the search direction p = z + β·p. It reuses the up/ur
// operand fields, with ur carrying z.
func (k *kernCtx) direction(pvec, z []float64, beta float64) {
	n := len(pvec)
	if k.pool.Workers() == 1 {
		for i := 0; i < n; i++ {
			pvec[i] = z[i] + beta*pvec[i]
		}
		return
	}
	k.up, k.ur, k.beta = pvec, z, beta
	k.pool.Run(par.Blocks(n, vecBlock), k.dirFn)
}
