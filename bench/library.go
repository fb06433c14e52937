package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/serve"
	"emvia/internal/stat"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// mcWorkers is the Monte-Carlo worker budget of every job, in the library
// path and in the in-process service alike: the recording host has 2 CPUs,
// and results are bit-identical at any budget.
const mcWorkers = 2

// callTimes accumulates the time one Monte-Carlo worker spends in each
// wrapped System call, and how often it failed a component.
type callTimes struct {
	clone, prepare, begin, fail, check time.Duration
	fails                              int
}

func (c *callTimes) add(o *callTimes) {
	c.clone += o.clone
	c.prepare += o.prepare
	c.begin += o.begin
	c.fail += o.fail
	c.check += o.check
	c.fails += o.fails
}

func (c *callTimes) busy() time.Duration {
	return c.clone + c.prepare + c.begin + c.fail + c.check
}

// timedSystem wraps one worker's clone of the grid system and times the calls
// that do linear-algebra or sampling work. BaseTTF and AgingRate run in the
// engine's inner scan and are left untimed, so the wrapper's clock reads stay
// off that loop. The optional interfaces are forwarded so the engine takes
// the same batched, masked paths it takes on the bare system.
type timedSystem struct {
	sys *pdn.GridSystem
	t   *callTimes
}

var (
	_ mc.TrialPreparer    = timedSystem{}
	_ mc.CandidateMasker  = timedSystem{}
	_ mc.ComponentLabeler = timedSystem{}
)

func (s timedSystem) NumComponents() int          { return s.sys.NumComponents() }
func (s timedSystem) BaseTTF(i int) float64       { return s.sys.BaseTTF(i) }
func (s timedSystem) AgingRate(i int) float64     { return s.sys.AgingRate(i) }
func (s timedSystem) ComponentLabel(i int) string { return s.sys.ComponentLabel(i) }

func (s timedSystem) SetCandidates(mask []bool) error { return s.sys.SetCandidates(mask) }

func (s timedSystem) BeginTrial(rng *rand.Rand) error {
	t0 := time.Now()
	err := s.sys.BeginTrial(rng)
	s.t.begin += time.Since(t0)
	return err
}

func (s timedSystem) Fail(i int) error {
	t0 := time.Now()
	err := s.sys.Fail(i)
	s.t.fail += time.Since(t0)
	s.t.fails++
	return err
}

func (s timedSystem) Failed() (bool, error) {
	t0 := time.Now()
	failed, err := s.sys.Failed()
	s.t.check += time.Since(t0)
	return failed, err
}

func (s timedSystem) PrepareTrials(seeds []int64) error {
	t0 := time.Now()
	err := s.sys.PrepareTrials(seeds)
	s.t.prepare += time.Since(t0)
	return err
}

// timedFactory returns an mc system factory that clones master for each
// worker, wrapped in a timedSystem, and the function that totals the
// workers' call times once the run has returned.
func timedFactory(master *pdn.GridSystem) (func() (mc.System, error), func() callTimes) {
	var mu sync.Mutex
	var workers []*callTimes
	factory := func() (mc.System, error) {
		t0 := time.Now()
		clone := master.Clone()
		ct := &callTimes{clone: time.Since(t0)}
		mu.Lock()
		workers = append(workers, ct)
		mu.Unlock()
		return timedSystem{sys: clone, t: ct}, nil
	}
	total := func() callTimes {
		mu.Lock()
		defer mu.Unlock()
		var out callTimes
		for _, w := range workers {
			out.add(w)
		}
		return out
	}
	return factory, total
}

// libraryJob is what one spec run through the library path produced.
type libraryJob struct {
	res         *mc.Result
	mortal      int // steady-screen mortal arrays (engine both)
	vias        int
	mcRun       time.Duration
	calls       callTimes
	p50Years    float64
	hasP50      bool
	fingerprint string
}

// gridSpecFor resolves a pool job's grid source to generator parameters as
// the service does. Pool jobs use the PG1 preset with explicit stripe counts.
func gridSpecFor(src *serve.GridSource, vdd float64) (pdn.GridSpec, error) {
	if src.Name != "PG1" || src.NX == 0 || src.NY == 0 || src.PadPeriod != 0 {
		return pdn.GridSpec{}, fmt.Errorf("bench: library jobs need a PG1 grid with explicit nx and ny")
	}
	gs := pdn.PG1Spec()
	gs.NX, gs.NY, gs.Seed, gs.Vdd = src.NX, src.NY, src.Seed, vdd
	return gs, nil
}

// runLibraryJob runs one synthetic-grid Monte-Carlo spec through the
// exported calls the service's runner makes — generate, calibrate, reference
// current, system, screen, trials — and times each one from outside when tr
// is non-nil. The spans of the job are parented to a root span named "job".
func runLibraryJob(ctx context.Context, spec *serve.JobSpec, tr *tracer, job int) (*libraryJob, error) {
	r := spec.Resolved()
	if r.Grid == nil || r.Engine == mc.EngineSteady {
		return nil, fmt.Errorf("bench: library jobs need a synthetic grid and a Monte-Carlo engine")
	}
	gs, err := gridSpecFor(r.Grid, r.Vdd)
	if err != nil {
		return nil, err
	}
	jobStart := time.Now()
	endJob, root := tr.begin(job, 0, "job")
	step := func(name string) func() {
		end, _ := tr.begin(job, root, name)
		return end
	}

	end := step("pdn.generate")
	g, err := pdn.Generate(gs)
	end()
	if err != nil {
		return nil, err
	}
	if r.Grid.CalibrateIR > 0 {
		end = step("pdn.calibrate")
		err = g.CalibrateLoad(r.Grid.CalibrateIR)
		end()
		if err != nil {
			return nil, err
		}
	}
	end = step("pdn.refcurrent")
	busiest, _, err := g.MaxViaCurrent()
	end()
	if err != nil {
		return nil, err
	}
	patterns := map[string]cudd.Pattern{"plus": cudd.Plus, "t": cudd.TShape, "l": cudd.LShape}
	models := make(map[cudd.Pattern]viaarray.TTFModel, len(r.Models))
	for key, m := range r.Models {
		ref := m.RefCurrentAmps
		if ref == 0 {
			ref = busiest
		}
		models[patterns[key]] = viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(m.MedianYears)), Sigma: m.Sigma},
			RefCurrent: ref,
			FailK:      m.FailK,
		}
	}
	cfg := pdn.TTFConfig{Grid: g, Models: models, Criterion: pdn.IRDrop, IRDropFrac: r.IRFrac}
	if r.Criterion == "wl" {
		cfg.Criterion = pdn.WeakestLink
	}

	var tl *trace.Timeline
	sysCtx := ctx
	if tr != nil {
		tl = trace.NewTimeline(jobStart, nil)
		sysCtx = trace.WithTimeline(ctx, tl)
	}
	endSys, sysID := tr.begin(job, root, "pdn.system")
	master, err := pdn.NewSystemCtx(sysCtx, cfg)
	endSys()
	tr.addTimeline(job, sysID, jobStart, tl.Spans(), map[string]string{"compile": "spice.compile", "factorize": "spice.factor"})
	if err != nil {
		return nil, err
	}
	out := &libraryJob{vias: master.NumComponents()}
	opt := mc.Options{Trials: r.Trials, Seed: r.Seed, Workers: mcWorkers, Engine: r.Engine}
	var screen *pdn.GridScreen
	if r.Engine == mc.EngineBoth {
		end = step("steady.screen")
		screen, err = master.SteadyScreen(pdn.ScreenConfig{})
		end()
		if err != nil {
			return nil, err
		}
		if screen.MortalVias == 0 {
			return nil, fmt.Errorf("bench: steady screen left no mortal via array")
		}
		out.mortal = screen.MortalVias
		opt.Candidates = screen.CandidateMask()
	}

	newSys := func() (mc.System, error) { return master.Clone(), nil }
	var totals func() callTimes
	if tr != nil {
		newSys, totals = timedFactory(master)
	}
	end = step("mc.run")
	t0 := time.Now()
	res, err := mc.RunParallelCtx(ctx, newSys, opt)
	out.mcRun = time.Since(t0)
	end()
	endJob()
	if err != nil {
		return nil, err
	}
	if screen != nil {
		if miss := res.MaskMisses(screen.ViaMortal); len(miss) > 0 {
			return nil, fmt.Errorf("bench: %d failure(s) outside the steady mortal set", len(miss))
		}
	}
	if totals != nil {
		out.calls = totals()
	}
	out.res = res
	if finite := res.FiniteTTF(); len(finite) > 0 {
		e, err := stat.NewECDF(finite)
		if err != nil {
			return nil, err
		}
		out.p50Years, out.hasP50 = phys.SecondsToYears(e.Percentile(0.5)), true
	}
	out.fingerprint = ttfFingerprint(res.TTF)
	return out, nil
}

// ttfFingerprint digests a TTF vector bit for bit.
func ttfFingerprint(ttf []float64) string {
	h := sha256.New()
	hashMatrix(h, [][]float64{ttf})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// library is the ir-cascade or wl-screened workload: one closed-loop caller
// running synthetic-grid jobs through the library path, one job per unit. An
// in-process service runs beside it from set-up on, as it would in emserve:
// after each job the caller resubmits the warm-up job, which the service's
// result cache answers, and after the timed loop the service replays the
// first job.
type library struct {
	cfg    config
	jobs   []serve.JobSpec
	hashes []string
	svc    *service
	// warm is the warm-up job's POST body and the manifest the service
	// answered it with, which every resubmission must return.
	warm, warmManifest []byte
	// first is the first job of the untimed pass, replayed by finish.
	first *libraryJob
	// traced holds the traced pass's totals.
	traced struct {
		calls        callTimes
		mcRun        time.Duration
		trials       int
		mortal, vias int
	}
}

func newLibrary(cfg config) workload { return &library{cfg: cfg} }

func (l *library) setup(ctx context.Context) error {
	l.jobs = libraryJobs(l.cfg.workload, l.cfg.tiny, l.cfg.seed)
	l.hashes = make([]string, len(l.jobs))
	for i := range l.jobs {
		var err error
		if l.hashes[i], err = l.jobs[i].ContentHash(); err != nil {
			return err
		}
	}
	var err error
	if l.svc, err = startService(); err != nil {
		return err
	}
	if _, err = runLibraryJob(ctx, warmupSpec(), nil, 0); err != nil {
		return err
	}
	if l.warm, _, err = specBody(warmupSpec()); err != nil {
		return err
	}
	rep, err := l.svc.submit(ctx, l.warm)
	if err != nil {
		return err
	}
	l.warmManifest = rep.manifest
	return nil
}

func (l *library) close() {
	if l.svc != nil {
		l.svc.close()
	}
}

// hitsPerJob is how many result-cache hits the caller times after each job.
// Spreading the hits over the whole run keeps one slow moment of the host
// from setting their median.
const hitsPerJob = 20

func (l *library) unit(ctx context.Context, i int, tr *tracer, tl *tally, pr *passResult) error {
	k := i % len(l.jobs)
	t0 := time.Now()
	job, err := runLibraryJob(ctx, &l.jobs[k], tr, i+1)
	d := time.Since(t0)
	tl.check(err == nil, "job %d (%s): %v", i, l.hashes[k], err)
	if err != nil {
		return ctx.Err()
	}
	pr.jobs = append(pr.jobs, d.Seconds())
	pr.unitDone(1, len(job.res.TTF), d)
	pr.outputs[fmt.Sprint(i)] = job.fingerprint
	tl.check(job.hasP50, "job %s: no trial failed", l.hashes[k])
	checkReference(tl, l.hashes[k]+".p50_years", job.p50Years)
	if i == 0 && l.first == nil {
		l.first = job
	}
	if tr != nil {
		t := &l.traced
		t.calls.add(&job.calls)
		t.mcRun += job.mcRun
		t.trials += len(job.res.TTF)
		if job.mortal > 0 {
			t.mortal += job.mortal
			t.vias += job.vias
		}
	}
	// Collect the job's garbage first, so the hits are not timed against a
	// collection that job left behind.
	runtime.GC()
	for h := 0; h < hitsPerJob; h++ {
		t0 := time.Now()
		hit, err := l.svc.submit(ctx, l.warm)
		d := time.Since(t0)
		tl.check(err == nil && hit.dedup == "result-cache" && bytes.Equal(hit.manifest, l.warmManifest),
			"resubmitted warm-up job: not the cached manifest (%v)", err)
		if err == nil {
			pr.hits = append(pr.hits, d.Seconds()*1e3)
		}
	}
	return nil
}

func (l *library) layers(pr *passResult, _ []span) map[string]float64 {
	t := &l.traced
	jobs := float64(len(pr.jobs))
	return map[string]float64{
		"mc.clone_s":          ratio(t.calls.clone.Seconds(), jobs),
		"mc.prepare_s":        ratio(t.calls.prepare.Seconds(), jobs),
		"mc.begin_s":          ratio(t.calls.begin.Seconds(), jobs),
		"mc.fail_s":           ratio(t.calls.fail.Seconds(), jobs),
		"mc.check_s":          ratio(t.calls.check.Seconds(), jobs),
		"mc.fails":            ratio(float64(t.calls.fails), jobs),
		"mc.fails_per_trial":  ratio(float64(t.calls.fails), float64(t.trials)),
		"mc.worker_busy_frac": ratio(t.calls.busy().Seconds(), mcWorkers*t.mcRun.Seconds()),
		"steady.mortal_frac":  ratio(float64(t.mortal), float64(t.vias)),
	}
}

// finish replays the first job through the service: the service's TTFs must
// equal the library path's bit for bit, which pins the harness as a faithful
// copy of the service's runner, and a resubmission must return the same
// bytes from the result cache.
func (l *library) finish(ctx context.Context, tl *tally) error {
	if l.first == nil {
		return fmt.Errorf("the first job of the timed pass failed")
	}
	body, hash, err := specBody(&l.jobs[0])
	if err != nil {
		return err
	}
	rep, err := l.svc.submit(ctx, body)
	tl.check(err == nil, "service replay of %s: %v", hash, err)
	if err != nil {
		return nil
	}
	ttf, err := manifestTTF(rep.manifest)
	tl.check(err == nil && ttfFingerprint(ttf) == l.first.fingerprint,
		"service replay of %s: TTFs differ from the library path (%v)", hash, err)
	hit, err := l.svc.submit(ctx, body)
	tl.check(err == nil && hit.dedup == "result-cache" && bytes.Equal(hit.manifest, rep.manifest),
		"resubmission of %s: not the cached manifest (%v)", hash, err)
	return nil
}
