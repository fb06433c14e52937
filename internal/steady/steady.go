// Package steady implements the linear-time steady-state electromigration
// screen of arXiv 2112.13451 over general interconnect trees.
//
// At steady state the atomic flux vanishes on every branch of a blocked
// metal tree: ∂σ/∂x + G = 0 with G = e·Z*·ρ·j/Ω. Ohm's law gives
// ρ·j = −dV/dx along the branch, so the steady stress is affine in the
// electrical potential,
//
//	σ_ss(x) = χ·(V̄ − V(x)),   χ = e·Z*/Ω,
//
// where V̄ is the metal-volume-weighted mean potential over the tree — the
// unique constant that conserves the tree's atom count. Tension therefore
// peaks at the tree's lowest-potential node (the cathode end of electron
// flow), and a one-segment tree reduces exactly to the Blech saturation
// stress G·L/2 of internal/korhonen. A component is EM-immortal when its
// peak steady tension stays below the critical nucleation stress: no void
// can ever nucleate, at any time, so Monte-Carlo sampling of its lifetime
// is wasted work.
//
// The screen needs only the solved DC operating point: node potentials,
// branch connectivity and relative metal volumes. One union-find pass over
// the branches plus two accumulation sweeps classify every node and branch,
// O(B·α(N)) — effectively linear in the netlist size, with no per-tree
// linear solves.
package steady

import (
	"fmt"
	"math"

	"emvia/internal/emdist"
	"emvia/internal/phys"
)

// Branch is one wire segment of the interconnect graph. Current direction
// and magnitude are implicit in the endpoint potentials; Volume weights the
// segment's metal volume (L·A) in the tree's atom-conservation average, and
// any non-positive value means "uniform" (weight 1).
type Branch struct {
	A, B   int
	Volume float64
}

// Graph is the screened interconnect: solved node potentials plus wire
// connectivity. Vias must NOT appear as branches — their liner barriers
// block atomic flux, which is exactly what partitions the metal into
// independent trees; they are screened against the node stresses of the
// trees they terminate on (see internal/pdn and internal/viaarray).
// Blocked marks flux-boundary nodes (package pads): a blocked node splits
// the trees meeting at it and belongs to none, but its potential still
// enters the averages of the branches that touch it.
type Graph struct {
	NumNodes int
	V        []float64
	Blocked  []bool
	Branches []Branch
}

// Config sets the screening physics.
type Config struct {
	// EM supplies e·Z*/Ω and ρ (the Korhonen constants). Required.
	EM emdist.Params
	// SigmaCrit is the critical tensile stress threshold, Pa: a node or
	// branch whose steady-state tension reaches it is classified mortal.
	SigmaCrit float64
}

// Report is the classification of one screened graph.
type Report struct {
	// Trees is the number of connected wire trees found.
	Trees int
	// TreeID maps each node to its tree (−1: blocked or isolated).
	TreeID []int
	// Stress is the per-node steady-state stress, Pa (tension positive);
	// 0 for nodes outside every tree.
	Stress []float64
	// BranchStress and BranchMortal classify each input branch by its peak
	// endpoint tension.
	BranchStress []float64
	BranchMortal []bool
	// MortalBranches counts the mortal entries of BranchMortal.
	MortalBranches int
	// MaxStress is the largest steady tension anywhere in the graph, Pa.
	MaxStress float64
	// SigmaCrit echoes the threshold the classification used, Pa.
	SigmaCrit float64
	// Chi is the stress-per-volt conversion e·Z*/Ω, Pa/V.
	Chi float64
}

// unionFind is a plain path-halving union-find over node indices.
type unionFind []int

func newUnionFind(n int) unionFind {
	p := make(unionFind, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func (p unionFind) find(x int) int {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (p unionFind) union(a, b int) {
	ra, rb := p.find(a), p.find(b)
	if ra != rb {
		p[ra] = rb
	}
}

// Screen classifies every node and branch of the graph as EM-mortal or
// immortal against cfg.SigmaCrit.
func Screen(g *Graph, cfg Config) (*Report, error) {
	if g == nil || g.NumNodes <= 0 {
		return nil, fmt.Errorf("steady: empty graph")
	}
	if len(g.V) != g.NumNodes {
		return nil, fmt.Errorf("steady: %d potentials for %d nodes", len(g.V), g.NumNodes)
	}
	if g.Blocked != nil && len(g.Blocked) != g.NumNodes {
		return nil, fmt.Errorf("steady: %d blocked flags for %d nodes", len(g.Blocked), g.NumNodes)
	}
	if cfg.EM.ZStar <= 0 || cfg.EM.Omega <= 0 {
		return nil, fmt.Errorf("steady: EM params need positive ZStar and Omega")
	}
	if cfg.SigmaCrit <= 0 || math.IsNaN(cfg.SigmaCrit) {
		return nil, fmt.Errorf("steady: SigmaCrit must be positive, got %g", cfg.SigmaCrit)
	}
	blocked := func(i int) bool { return g.Blocked != nil && g.Blocked[i] }
	for bi, b := range g.Branches {
		if b.A < 0 || b.A >= g.NumNodes || b.B < 0 || b.B >= g.NumNodes {
			return nil, fmt.Errorf("steady: branch %d endpoints (%d,%d) out of range", bi, b.A, b.B)
		}
	}

	// Pass 1: merge branches into trees. Blocked nodes never merge — each
	// acts as a barrier — so a branch joins the tree of its free endpoint.
	// A branch with both endpoints blocked forms a degenerate tree of its
	// own, keyed past the node range.
	uf := newUnionFind(g.NumNodes + len(g.Branches))
	comp := make([]int, len(g.Branches)) // union-find key per branch
	for bi, b := range g.Branches {
		switch {
		case !blocked(b.A) && !blocked(b.B):
			uf.union(b.A, b.B)
			comp[bi] = b.A
		case !blocked(b.A):
			comp[bi] = b.A
		case !blocked(b.B):
			comp[bi] = b.B
		default:
			comp[bi] = g.NumNodes + bi
		}
	}

	// Pass 2: per-tree volume-weighted mean potential. Each branch spreads
	// its volume evenly over its two endpoints, so chains of equal segments
	// reproduce the trapezoid average of V along the wire.
	type acc struct{ wsum, vsum float64 }
	sums := make(map[int]*acc, 64)
	for bi, b := range g.Branches {
		w := b.Volume
		if w <= 0 || math.IsNaN(w) {
			w = 1
		}
		root := uf.find(comp[bi])
		comp[bi] = root
		a := sums[root]
		if a == nil {
			a = &acc{}
			sums[root] = a
		}
		a.wsum += w
		a.vsum += w * (g.V[b.A] + g.V[b.B]) / 2
	}

	chi := phys.ElementaryCharge * cfg.EM.ZStar / cfg.EM.Omega
	rep := &Report{
		TreeID:       make([]int, g.NumNodes),
		Stress:       make([]float64, g.NumNodes),
		BranchStress: make([]float64, len(g.Branches)),
		BranchMortal: make([]bool, len(g.Branches)),
		SigmaCrit:    cfg.SigmaCrit,
		Chi:          chi,
	}
	for i := range rep.TreeID {
		rep.TreeID[i] = -1
	}
	treeOf := make(map[int]int, len(sums))
	vbar := func(root int) float64 {
		a := sums[root]
		return a.vsum / a.wsum
	}

	// Pass 3: classify. Node stress is defined for every non-blocked node a
	// branch touches; a blocked endpoint is judged against the adjoining
	// branch's tree (its worst attachment wins via the max fold below).
	for bi, b := range g.Branches {
		root := comp[bi]
		tid, ok := treeOf[root]
		if !ok {
			tid = len(treeOf)
			treeOf[root] = tid
		}
		mean := vbar(root)
		sa := chi * (mean - g.V[b.A])
		sb := chi * (mean - g.V[b.B])
		if !blocked(b.A) {
			rep.TreeID[b.A] = tid
			rep.Stress[b.A] = sa
		}
		if !blocked(b.B) {
			rep.TreeID[b.B] = tid
			rep.Stress[b.B] = sb
		}
		s := math.Max(sa, sb)
		rep.BranchStress[bi] = s
		if s >= cfg.SigmaCrit {
			rep.BranchMortal[bi] = true
			rep.MortalBranches++
		}
		if s > rep.MaxStress {
			rep.MaxStress = s
		}
	}
	rep.Trees = len(treeOf)
	return rep, nil
}

// Mortal reports whether a component anchored at node i with pre-stress
// sigmaT can ever nucleate: σ_ss(i) + σ_T ≥ σ_crit.
func (r *Report) Mortal(i int, sigmaT float64) bool {
	return r.Stress[i]+sigmaT >= r.SigmaCrit
}

// Margin returns the stress headroom σ_crit − σ_ss(i) − σ_T of a component
// anchored at node i, Pa; negative margins are mortal.
func (r *Report) Margin(i int, sigmaT float64) float64 {
	return r.SigmaCrit - r.Stress[i] - sigmaT
}
