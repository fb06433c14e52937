package main

import (
	"runtime"
	"sync"
	"time"
)

// The host's speed moves by tens of percent from one minute to the next as
// other tenants come and go (README.md, "Host noise"), and every layer of the
// program slows with it. So a run also times a fixed reference kernel of the
// harness's own between its units, and reports every time scaled to the host
// speed at which that kernel takes refKernelMS. The kernel calls no emvia
// code, so a change to the program cannot move it.

// refKernelMS is about the reference kernel's median time, in milliseconds,
// on the recording host. Every time metric is expressed at that speed.
const refKernelMS = 6.0

// kernelShare is the share of each unit's duration the run spends timing the
// kernel after it.
const kernelShare = 0.10

// kernelGrid and kernelIters size the reference kernel: conjugate-gradient
// iterations on the 5-point Laplacian of a kernelGrid² grid, 2 MB of
// vectors per worker — sparse linear algebra, like most of the program's
// work.
const (
	kernelGrid  = 256
	kernelIters = 8
)

// cgState is one worker's preallocated vectors, so a timed kernel allocates
// nothing and no garbage collection of the program's heap lands in it.
type cgState struct{ x, r, p, ap []float64 }

func newCGState() *cgState {
	n := kernelGrid * kernelGrid
	return &cgState{x: make([]float64, n), r: make([]float64, n), p: make([]float64, n), ap: make([]float64, n)}
}

// run performs kernelIters conjugate-gradient iterations for A x = 1 from
// x = 0.
func (s *cgState) run() {
	n := kernelGrid
	x, r, p, ap := s.x, s.r, s.p, s.ap
	for k := range x {
		x[k], r[k], p[k] = 0, 1, 1
	}
	rr := float64(len(x))
	for it := 0; it < kernelIters; it++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				k := i*n + j
				v := 4 * p[k]
				if i > 0 {
					v -= p[k-n]
				}
				if i < n-1 {
					v -= p[k+n]
				}
				if j > 0 {
					v -= p[k-1]
				}
				if j < n-1 {
					v -= p[k+1]
				}
				ap[k] = v
			}
		}
		pap := 0.0
		for k := range p {
			pap += p[k] * ap[k]
		}
		alpha := rr / pap
		rr2 := 0.0
		for k := range x {
			x[k] += alpha * p[k]
			r[k] -= alpha * ap[k]
			rr2 += r[k] * r[k]
		}
		beta := rr2 / rr
		rr = rr2
		for k := range p {
			p[k] = r[k] + beta*p[k]
		}
	}
}

// hostGauge times the reference kernel on mcWorkers goroutines at once, as
// the program's Monte-Carlo runs occupy both CPUs of the recording host.
type hostGauge struct {
	workers []*cgState
	samples []float64 // milliseconds per kernel run
}

func newHostGauge() *hostGauge {
	g := &hostGauge{}
	for i := 0; i < mcWorkers; i++ {
		g.workers = append(g.workers, newCGState())
	}
	return g
}

// once runs the kernel on every worker at once and records the wall time.
func (g *hostGauge) once() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range g.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	g.samples = append(g.samples, time.Since(t0).Seconds()*1e3)
}

// after samples the kernel for kernelShare of a unit that took d, at least
// twice, after collecting the unit's garbage.
func (g *hostGauge) after(d time.Duration) {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < time.Duration(kernelShare*float64(d)); i++ {
		g.once()
	}
}

// factor is the host's slowdown against the reference speed: the median
// kernel time over refKernelMS. Times divide by it and rates multiply.
func (g *hostGauge) factor() float64 {
	return median(g.samples) / refKernelMS
}
