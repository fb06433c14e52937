package solver

import (
	"fmt"
	"math"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// SupernodalCholesky is a blocked sparse LLᵀ factorization P·A·Pᵀ = L·Lᵀ of
// an SPD system — the power-grid solver at every size. Its pattern is fixed
// after construction, and refactorization and triangular solves allocate
// nothing. L lives in supernodal panels, and the numeric factorization visits
// the supernodes in ascending order on the calling goroutine.
//
// A supernode is a maximal run of consecutive columns with identical
// below-diagonal structure (detected from the etree: parent[j] == j+1 and
// colcount[j] == colcount[j+1]+1, width-capped at snMaxWidth). Its columns
// are stored column-major in one dense panel of lr rows, lr = |pattern of the
// first column|; entry (row position ri, column jj) lives at jj·lr+ri, and
// positions ri < jj (the strictly-upper triangle of the diagonal block) are
// dead. Left-looking supernode-supernode updates then run as dense
// rank-w_d kernels over contiguous memory instead of scalar scatter chains.
//
// Determinism: each target column accumulates its updates in a fixed order —
// source supernodes ascending (the static update lists are built sorted),
// source columns ascending, rows ascending — so the factor of a matrix is a
// pure function of its values and ordering.
type SupernodalCholesky struct {
	n    int
	perm []int

	// Supernode partition. Column j belongs to supernode snOf[j]; supernode s
	// covers columns [snCol[s], snCol[s+1]).
	nsup  int
	snCol []int32
	snOf  []int32

	// Row structure: snRows[snRptr[s]:snRptr[s+1]] lists the permuted row ids
	// of supernode s's panel, ascending; the first width(s) entries are the
	// supernode's own columns.
	snRows []int32
	snRptr []int

	// Panel values: the panel of supernode s is px[pptr[s] : pptr[s]+w·lr].
	px   []float64
	pptr []int

	// A-value scatter, grouped by target column (permuted): for t in
	// [asColPtr[j], asColPtr[j+1]), row position asRI[t] of column j's panel
	// slice loads a.ValueAt(asSlot[t]).
	asColPtr []int
	asSlot   []int32
	asRI     []int32

	// Static update lists, grouped by target supernode and sorted by source
	// ascending: entry t says rows [updRS[t], updRS[t]+updNC[t]) of source
	// supernode updSrc[t]'s row list land on target columns.
	uptr   []int
	updSrc []int32
	updRS  []int32
	updNC  []int32

	// Refactor scratch: relmap maps a permuted row id to its row position in
	// the panel of the supernode being factored (entries of other rows are
	// stale and never read); ybuf accumulates one update column.
	relmap []int32
	ybuf   []float64

	ws Workspace // solve scratch of SolveInto

	nnzL  int // true entry count of L (dead panel corners excluded)
	maxLr int
}

// snMaxWidth caps supernode width: wider panels waste dead diagonal-block
// corners faster than the dense-kernel efficiency improves.
const snMaxWidth = 32

// snAmalgSlack is the absolute stored-zero budget below which an
// amalgamation is always accepted (whatever the ratio); beyond it the waste
// must stay under a third of the panel.
const snAmalgSlack = 24

// NewSupernodalCholeskyFromCSR orders a with AMDOrder, runs the symbolic
// analysis and factors the matrix. It returns ErrNotSPD when a pivot is
// non-positive.
func NewSupernodalCholeskyFromCSR(a *sparse.CSR) (*SupernodalCholesky, error) {
	return newSupernodalCholeskyOrdered(a, AMDOrder(a))
}

// newSupernodalCholeskyOrdered is NewSupernodalCholeskyFromCSR with a
// caller-chosen elimination order.
func newSupernodalCholeskyOrdered(a *sparse.CSR, perm []int) (*SupernodalCholesky, error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("solver: supernodal factor needs a square matrix, got %d×%d", n, m)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("solver: permutation length %d, want %d", len(perm), n)
	}
	c := &SupernodalCholesky{n: n, perm: append([]int(nil), perm...)}
	invp := make([]int, n)
	for i := range invp {
		invp[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= n || invp[p] >= 0 {
			return nil, fmt.Errorf("solver: perm is not a permutation of 0..%d", n-1)
		}
		invp[p] = k
	}
	c.symbolic(a, invp)
	if err := c.RefactorFromCSR(a); err != nil {
		return nil, err
	}
	return c, nil
}

// symbolic runs the scalar symbolic analysis (etree, row patterns, column
// structure), partitions columns into supernodes, and precomputes the static
// structures of the numeric phase: panel layouts, A-scatter targets and
// update lists. invp is the inverse of c.perm.
func (c *SupernodalCholesky) symbolic(a *sparse.CSR, invp []int) {
	n := c.n

	// Upper triangle of the permuted pattern plus raw A-scatter tuples
	// (permuted row, permuted col, CSR slot). A symmetric pattern with a full
	// diagonal (every MNA matrix: gmin ties each free node to ground) has
	// exactly (nnz−n)/2 strictly-upper and (nnz+n)/2 upper entries.
	nnzA := a.NNZ()
	upPtr := make([]int, n+1)
	upCols := make([]int32, 0, max(nnzA-n, 0)/2)
	type atup struct{ k, j, slot int32 }
	atups := make([]atup, 0, (nnzA+n)/2)
	for k := 0; k < n; k++ {
		orig := c.perm[k]
		cols, _ := a.Row(orig)
		if len(cols) > 0 {
			base := a.SlotIndex(orig, int(cols[0]))
			for t, col := range cols {
				j := invp[col]
				if j > k {
					continue
				}
				atups = append(atups, atup{int32(k), int32(j), int32(base + t)})
				if j < k {
					upCols = append(upCols, int32(j))
				}
			}
		}
		upPtr[k+1] = len(upCols)
	}

	// Elimination tree (Liu's algorithm with path compression).
	parent := make([]int, n)
	anc := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		anc[k] = -1
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); i != -1 && i < k; {
				next := anc[i]
				anc[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}

	// Row patterns via ereach, in two passes: the first counts each column's
	// entries, the second writes row k into the columns it touches. Rows are
	// visited with k ascending, so every column's row list comes out sorted
	// without sorting the (unordered) ereach output.
	colcount := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for k := 0; k < n; k++ {
		stamp[k] = k
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); stamp[i] != k; i = parent[i] {
				stamp[i] = k
				colcount[i]++
			}
		}
	}

	// Supernode partition: fundamental supernodes from the etree chain rule,
	// width-capped. On mesh orderings fundamental supernodes are almost all
	// single columns, so a relaxed amalgamation pass follows.
	c.snOf = make([]int32, n)
	fund := []int32{0}
	for j := 1; j < n; j++ {
		first := int(fund[len(fund)-1])
		mergeable := parent[j-1] == j && colcount[j-1] == colcount[j]+1 && j-first < snMaxWidth
		if !mergeable {
			fund = append(fund, int32(j))
		}
	}
	fund = append(fund, int32(n))

	// Relaxed amalgamation: absorb a supernode into its etree-chain successor
	// when the explicitly-stored zeros this adds stay a small fraction of the
	// panel. The merged panel's rows are its own columns followed by the true
	// tail pattern of its LAST column (every member column's pattern nests
	// inside that by the chain inclusion), so member columns may store exact
	// zeros; those cost bounded extra flops and buy the wide dense panels the
	// blocked kernels need. With j1 the last column of a group, the group's
	// tail length is colcount[j1] and its stored row count is width +
	// colcount[j1].
	truenz := make([]int, len(fund)) // true nnz per fundamental supernode
	for fi := 0; fi+1 < len(fund); fi++ {
		for j := fund[fi]; j < fund[fi+1]; j++ {
			truenz[fi] += 1 + colcount[j]
		}
	}
	c.snCol = append(c.snCol[:0], 0)
	curW := int(fund[1])
	curNZ := truenz[0]
	for fi := 1; fi+1 < len(fund); fi++ {
		jf := int(fund[fi])
		wf := int(fund[fi+1]) - jf
		tf := colcount[int(fund[fi+1])-1]
		chainOK := parent[jf-1] == jf
		wNew := curW + wf
		lrNew := wNew + tf
		stored := wNew*lrNew - wNew*(wNew-1)/2
		nzNew := curNZ + truenz[fi]
		waste := stored - nzNew
		if chainOK && wNew <= snMaxWidth && (waste <= snAmalgSlack || waste*3 <= stored) {
			curW, curNZ = wNew, nzNew
			continue
		}
		c.snCol = append(c.snCol, int32(jf))
		curW, curNZ = wf, truenz[fi]
	}
	c.nsup = len(c.snCol)
	c.snCol = append(c.snCol, int32(n))
	for s := 0; s < c.nsup; s++ {
		for j := c.snCol[s]; j < c.snCol[s+1]; j++ {
			c.snOf[j] = int32(s)
		}
	}

	// Column structure of L (transient): diagonal-first CSC, used to read off
	// each supernode's row list from its first column.
	colptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colptr[j+1] = colptr[j] + 1 + colcount[j]
	}
	rowind := make([]int32, colptr[n])
	cpos := make([]int, n)
	for j := 0; j < n; j++ {
		rowind[colptr[j]] = int32(j)
		cpos[j] = colptr[j] + 1
		stamp[j] = -1
	}
	for k := 0; k < n; k++ {
		stamp[k] = k
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); stamp[i] != k; i = parent[i] {
				stamp[i] = k
				rowind[cpos[i]] = int32(k)
				cpos[i]++
			}
		}
	}

	// Panel layouts: the row list of a (possibly amalgamated) supernode is its
	// own columns followed by the true tail pattern of its last column.
	c.snRptr = make([]int, c.nsup+1)
	c.pptr = make([]int, c.nsup+1)
	c.nnzL = 0
	c.maxLr = 0
	for s := 0; s < c.nsup; s++ {
		j0 := int(c.snCol[s])
		w := int(c.snCol[s+1]) - j0
		lr := w + colcount[j0+w-1]
		c.snRptr[s+1] = c.snRptr[s] + lr
		c.pptr[s+1] = c.pptr[s] + w*lr
		c.nnzL += w*lr - w*(w-1)/2
		if lr > c.maxLr {
			c.maxLr = lr
		}
	}
	c.snRows = make([]int32, c.snRptr[c.nsup])
	for s := 0; s < c.nsup; s++ {
		j0 := int(c.snCol[s])
		w := int(c.snCol[s+1]) - j0
		j1 := j0 + w - 1
		base := c.snRptr[s]
		for i := 0; i < w; i++ {
			c.snRows[base+i] = int32(j0 + i)
		}
		copy(c.snRows[base+w:c.snRptr[s+1]], rowind[colptr[j1]+1:colptr[j1+1]])
	}
	c.px = make([]float64, c.pptr[c.nsup])

	// A-scatter grouped by target column. Row position of permuted row k
	// within the target panel comes from a binary search of the (ascending)
	// row list.
	c.asColPtr = make([]int, n+1)
	for _, t := range atups {
		c.asColPtr[t.j+1]++
	}
	for j := 0; j < n; j++ {
		c.asColPtr[j+1] += c.asColPtr[j]
	}
	c.asSlot = make([]int32, len(atups))
	c.asRI = make([]int32, len(atups))
	fillpos := make([]int, n)
	copy(fillpos, c.asColPtr[:n])
	for _, t := range atups {
		s := c.snOf[t.j]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		// Inline lower-bound search (sort.Search's closure would allocate
		// once per nonzero of A).
		lo, hi := 0, len(rows)
		for lo < hi {
			mid := (lo + hi) / 2
			if rows[mid] < t.k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ri := lo
		p := fillpos[t.j]
		c.asSlot[p] = t.slot
		c.asRI[p] = int32(ri)
		fillpos[t.j] = p + 1
	}

	// Static update lists: for each source supernode d, group the tail of its
	// row list (positions ≥ width) into runs per target supernode. A first
	// walk counts each target's runs, a second writes them in place. Iterating
	// d ascending keeps every target's list sorted by source — the fixed
	// update order the determinism argument relies on.
	c.uptr = make([]int, c.nsup+1)
	forRuns := func(emit func(tgt, d, u, v int32)) {
		for d := 0; d < c.nsup; d++ {
			w := int(c.snCol[d+1] - c.snCol[d])
			rows := c.snRows[c.snRptr[d]:c.snRptr[d+1]]
			for u := w; u < len(rows); {
				tgt := c.snOf[rows[u]]
				v := u
				for v < len(rows) && c.snOf[rows[v]] == tgt {
					v++
				}
				emit(tgt, int32(d), int32(u), int32(v))
				u = v
			}
		}
	}
	forRuns(func(tgt, _, _, _ int32) { c.uptr[tgt+1]++ })
	for s := 0; s < c.nsup; s++ {
		c.uptr[s+1] += c.uptr[s]
	}
	nupd := c.uptr[c.nsup]
	c.updSrc = make([]int32, nupd)
	c.updRS = make([]int32, nupd)
	c.updNC = make([]int32, nupd)
	copy(fillpos, c.uptr[:c.nsup])
	forRuns(func(tgt, d, u, v int32) {
		p := fillpos[tgt]
		c.updSrc[p] = d
		c.updRS[p] = u
		c.updNC[p] = v - u
		fillpos[tgt] = p + 1
	})

	c.ws.grow(n)
	c.initScratch()
}

// initScratch allocates the refactor scratch.
func (c *SupernodalCholesky) initScratch() {
	c.relmap = make([]int32, c.n)
	c.ybuf = make([]float64, c.maxLr)
}

// N returns the system dimension.
func (c *SupernodalCholesky) N() int { return c.n }

// NNZ returns the entry count of L, diagonal included (dead panel corners
// excluded).
func (c *SupernodalCholesky) NNZ() int { return c.nnzL }

// Perm returns the elimination order. The slice is internal; callers must
// not modify it.
func (c *SupernodalCholesky) Perm() []int { return c.perm }

// Supernodes returns the number of supernodes of the partition.
func (c *SupernodalCholesky) Supernodes() int { return c.nsup }

// prepCols computes the columns of supernode s up to (not including) the
// dense diagonal-block factorization: zero, scatter A, apply the static
// update list.
func (c *SupernodalCholesky) prepCols(a *sparse.CSR, s int32) {
	po := c.pptr[s]
	rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
	lr := len(rows)
	w := int(c.snCol[s+1] - c.snCol[s])
	px := c.px

	c0 := int(c.snCol[s])
	for jj := 0; jj < w; jj++ {
		col := px[po+jj*lr+jj : po+(jj+1)*lr]
		for u := range col {
			col[u] = 0
		}
		base := po + jj*lr
		for t := c.asColPtr[c0+jj]; t < c.asColPtr[c0+jj+1]; t++ {
			px[base+int(c.asRI[t])] = a.ValueAt(int(c.asSlot[t]))
		}
	}

	rel := c.relmap
	for i, r := range rows {
		rel[r] = int32(i)
	}
	y := c.ybuf
	for t := c.uptr[s]; t < c.uptr[s+1]; t++ {
		d := c.updSrc[t]
		rs := int(c.updRS[t])
		nc := int(c.updNC[t])
		rowsD := c.snRows[c.snRptr[d]:c.snRptr[d+1]]
		ld := len(rowsD)
		wd := int(c.snCol[d+1] - c.snCol[d])
		pod := c.pptr[d]
		for q := 0; q < nc; q++ {
			jj := int(rowsD[rs+q]) - c0
			// y[u] = Σ_k L_d[rs+q+u,k]·L_d[rs+q,k], k over d's columns
			// ascending. The hoisted slices start at row rs+q, so src[0] is
			// the multiplier itself. Four source columns per pass quarters
			// the y-store traffic; the in-statement adds associate left to
			// right, so the sums match the one-column-at-a-time order bit for
			// bit and the unroll factor never changes the result.
			m := ld - rs - q
			yy := y[:m]
			cb := pod + rs + q
			tb := po + jj*lr
			tails := rowsD[rs+q:]
			// All but the last 1–4 source columns accumulate into y four at a
			// time; the final block fuses with the scatter-subtract, so
			// narrow sources — the common case — never round-trip through y.
			// The in-statement adds associate left to right, matching the
			// one-column-at-a-time order, and the scatter hits every tail row
			// of d: they all lie in s's row list by the fill-path lemma.
			r := wd & 3
			if r == 0 {
				r = 4
			}
			kEnd := wd - r
			for k := 0; k < kEnd; k += 4 {
				cb0 := cb + k*ld
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				s3 := px[cb0+3*ld : cb0+3*ld+m]
				l0, l1, l2, l3 := s0[0], s1[0], s2[0], s3[0]
				for u := range yy {
					yy[u] += s0[u]*l0 + s1[u]*l1 + s2[u]*l2 + s3[u]*l3
				}
			}
			cb0 := cb + kEnd*ld
			switch r {
			case 1:
				s0 := px[cb0 : cb0+m]
				l0 := s0[0]
				if kEnd == 0 {
					for u, t := range tails {
						px[tb+int(rel[t])] -= s0[u] * l0
					}
				} else {
					for u, t := range tails {
						px[tb+int(rel[t])] -= yy[u] + s0[u]*l0
						yy[u] = 0
					}
				}
			case 2:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				l0, l1 := s0[0], s1[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1
					yy[u] = 0
				}
			case 3:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				l0, l1, l2 := s0[0], s1[0], s2[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1 + s2[u]*l2
					yy[u] = 0
				}
			default:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				s3 := px[cb0+3*ld : cb0+3*ld+m]
				l0, l1, l2, l3 := s0[0], s1[0], s2[0], s3[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1 + s2[u]*l2 + s3[u]*l3
					yy[u] = 0
				}
			}
		}
	}
}

// denseFactor runs the dense Cholesky of supernode s's diagonal block with
// the triangular solve of its below-block, right-looking across the panel in
// fixed column order.
func (c *SupernodalCholesky) denseFactor(s int32) error {
	po := c.pptr[s]
	lr := c.snRptr[s+1] - c.snRptr[s]
	w := int(c.snCol[s+1] - c.snCol[s])
	px := c.px
	for jj := 0; jj < w; jj++ {
		col := px[po+jj*lr+jj : po+(jj+1)*lr] // col[0] is the diagonal
		d := col[0]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: supernodal pivot %g at permuted column %d", ErrNotSPD, d, int(c.snCol[s])+jj)
		}
		piv := math.Sqrt(d)
		inv := 1 / piv
		col[0] = piv
		// One division per column, then multiplies: an FP divide costs an
		// order of magnitude more than a multiply and this loop runs once per
		// stored entry of L.
		for u := 1; u < len(col); u++ {
			col[u] *= inv
		}
		for kk := jj + 1; kk < w; kk++ {
			ljk := col[kk-jj]
			if ljk == 0 {
				continue
			}
			tcol := px[po+kk*lr+kk : po+(kk+1)*lr]
			src := col[kk-jj:]
			for u := range tcol {
				tcol[u] -= src[u] * ljk
			}
		}
	}
	return nil
}

// RefactorFromCSR refactors numerically in place from a (same pattern as the
// symbolic analysis), supernode by supernode in ascending order. It stops at
// the first non-positive pivot and returns ErrNotSPD naming its column; the
// factor is then garbage and must be refactored before further use.
func (c *SupernodalCholesky) RefactorFromCSR(a *sparse.CSR) error {
	n, m := a.Dims()
	if n != c.n || m != c.n {
		return fmt.Errorf("solver: Refactor dimensions %d×%d, want %d×%d", n, m, c.n, c.n)
	}
	record(telemetry.SparseFactorizations)
	for s := int32(0); s < int32(c.nsup); s++ {
		c.prepCols(a, s)
		if err := c.denseFactor(s); err != nil {
			return err
		}
	}
	return nil
}

// Workspace is the scratch of a caller's triangular solves, grown on demand
// and reused across calls. A factor keeps one for SolveInto; SolveWith
// takes the caller's, which leaves the factor
// strictly read-only, so goroutines that each own a Workspace may solve
// against one factor concurrently.
type Workspace struct{ z []float64 }

// grow returns the first m scratch entries, reallocating when short.
func (w *Workspace) grow(m int) []float64 {
	if cap(w.z) < m {
		w.z = make([]float64, m)
	}
	return w.z[:m]
}

// SolveInto overwrites x with A⁻¹·b without allocating. Both slices must
// have the system dimension; they may alias.
func (c *SupernodalCholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n || len(x) != c.n {
		return fmt.Errorf("solver: SolveInto lengths %d/%d do not match dimension %d", len(x), len(b), c.n)
	}
	return c.SolveWith(&c.ws, x, b, 1)
}

// SolveWith solves nrhs systems into x using the caller's workspace: b and x
// hold nrhs stacked vectors (vector k occupies [k·n, (k+1)·n)), solved one
// after another by the single-vector kernel. It reads the factor and writes
// only x and ws, so concurrent calls with distinct workspaces are safe.
//
// There is no row-major batched kernel: one beats the loop only on dense
// right-hand sides. The failure cascade, the only batched caller, solves
// two-entry resistor vectors, whose zero columns the single-vector forward
// sweep skips; on the nx64 power-grid factor (8 023 unknowns) the loop was
// faster than a variable-width batched pass at every width from 1 to 16
// (2-CPU Intel Xeon, medians of 8 interleaved runs: 0.54 against 2.02 ms
// for one vector, 4.61 against 5.84 for eight, 9.68 against 11.24 for
// sixteen).
func (c *SupernodalCholesky) SolveWith(ws *Workspace, x, b []float64, nrhs int) error {
	if nrhs <= 0 {
		return fmt.Errorf("solver: SolveWith nrhs %d", nrhs)
	}
	n := c.n
	if len(b) != n*nrhs || len(x) != n*nrhs {
		return fmt.Errorf("solver: SolveWith lengths %d/%d, want %d", len(x), len(b), n*nrhs)
	}
	record(telemetry.SparseSolves)
	z := ws.grow(n)
	for v := 0; v < nrhs; v++ {
		c.solveVec(z, x[v*n:(v+1)*n], b[v*n:(v+1)*n])
	}
	return nil
}

// solveVec is the single-vector forward and backward sweep through scratch z.
func (c *SupernodalCholesky) solveVec(z, x, b []float64) {
	n, px := c.n, c.px
	for k := 0; k < n; k++ {
		z[k] = b[c.perm[k]]
	}
	for s := 0; s < c.nsup; s++ { // forward: L·z' = P·b
		po := c.pptr[s]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		lr := len(rows)
		w := int(c.snCol[s+1] - c.snCol[s])
		c0 := int(c.snCol[s])
		for jj := 0; jj < w; jj++ {
			base := po + jj*lr
			zj := z[c0+jj] / px[base+jj]
			z[c0+jj] = zj
			if zj == 0 {
				// Nothing to propagate: x − l·0 = x bit for bit. A sparse
				// right-hand side (a response to one edge edit) reaches
				// only its elimination-tree paths, so the forward sweep
				// skips most columns.
				continue
			}
			for u := jj + 1; u < lr; u++ {
				z[rows[u]] -= px[base+u] * zj
			}
		}
	}
	for s := c.nsup - 1; s >= 0; s-- { // backward: Lᵀ·z = z'
		po := c.pptr[s]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		lr := len(rows)
		w := int(c.snCol[s+1] - c.snCol[s])
		c0 := int(c.snCol[s])
		for jj := w - 1; jj >= 0; jj-- {
			base := po + jj*lr
			sum := z[c0+jj]
			for u := jj + 1; u < lr; u++ {
				sum -= px[base+u] * z[rows[u]]
			}
			z[c0+jj] = sum / px[base+jj]
		}
	}
	for k := 0; k < n; k++ {
		x[c.perm[k]] = z[k]
	}
}

// Clone returns a copy with private numeric state (panel values and
// scratch) sharing the immutable symbolic structure.
func (c *SupernodalCholesky) Clone() *SupernodalCholesky {
	d := *c
	d.px = append([]float64(nil), c.px...)
	d.ws = Workspace{}
	d.ws.grow(c.n)
	d.initScratch()
	return &d
}
