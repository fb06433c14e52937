package telemetry

// Metric names. Centralizing them here keeps the instrumented packages, the
// derived-metric computation in Snapshot and the documentation (DESIGN.md §8)
// in agreement. Naming scheme: <package>.<subsystem>.<metric>; histogram
// names carry their unit as the final path element. Every name must follow
// the grammar parseName checks when its metric is created.
const (
	// internal/solver — conjugate gradients.
	CGSolves        = "solver.cg.solves"
	CGIterations    = "solver.cg.iterations"
	CGItersPerSolve = "solver.cg.iterations_per_solve"
	// See PrecondFallbacks for the labeled series of preconditioner
	// fallbacks.

	// internal/solver — dense Cholesky (the via-array networks).
	DenseFactorizations = "solver.dense.factorizations"
	DenseUpdates        = "solver.dense.updates"
	DenseDowndates      = "solver.dense.downdates"
	DenseSolves         = "solver.dense.solves"

	// internal/solver — supernodal sparse Cholesky (the power-grid solver).
	// The factor has no rank-one update path any more, so SparseUpdates and
	// SparseDowndates now read 0; the benchmark harness still reports them.
	SparseFactorizations = "solver.sparse.factorizations"
	SparseUpdates        = "solver.sparse.updates"
	SparseDowndates      = "solver.sparse.downdates"
	SparseSolves         = "solver.sparse.solves"

	// internal/spice — compiled circuits. A compiled circuit is read-only,
	// so nothing resets one and SpiceResets now reads 0; the benchmark
	// harness still reports it.
	SpiceCompiles      = "spice.compiles"
	SpiceResets        = "spice.resets"
	SpiceSparseSolves  = "spice.solves.sparse"
	SpiceFactorSeconds = "spice.sparse.factor_seconds"

	// internal/mc — the sequential-failure Monte-Carlo engine.
	MCTrials           = "mc.trials"
	MCFailuresPerTrial = "mc.failures_per_trial"
	MCTrialSeconds     = "mc.trial_seconds"
	MCFailStepSeconds  = "mc.fail_step_seconds"
	MCRunSeconds       = "mc.run_seconds"
	// Candidate-mask split of a screened (-engine=both) run: candidates are
	// the mortal components the trials simulate, pruned the immortal rest
	// the steady screen removed from sampling and scanning.
	MCCandidateComponents = "mc.screen.candidate_components"
	MCPrunedComponents    = "mc.screen.pruned_components"

	// internal/pdn — the low-rank failure cascade of IR-drop trials.
	// CascadeSteps counts failures served by a capacitance-matrix update
	// against the shared pristine factor; CascadeResponseHits counts the
	// pristine responses A₀⁻¹u those steps read from the shared cache, and
	// CascadeResponseMisses those a step solved itself. See CascadeFallbacks
	// for the labeled series.
	CascadeSteps          = "pdn.cascade.steps"
	CascadeResponseHits   = "pdn.cascade.response_hits"
	CascadeResponseMisses = "pdn.cascade.response_fills{path=miss}"

	// internal/pdn + internal/steady — the steady-state screening engine.
	SteadyScreens       = "steady.screens"
	SteadyScreenSeconds = "steady.screen_seconds"
	SteadyMortalVias    = "steady.mortal_vias"
	SteadyImmortalVias  = "steady.immortal_vias"

	// internal/fem — the FEA pipeline.
	FEMSolves          = "fem.solves"
	FEMAssemblySeconds = "fem.assembly_seconds"
	FEMSolveSeconds    = "fem.solve_seconds"
	FEMStressSeconds   = "fem.stress_recovery_seconds"

	// internal/core — memoization layers.
	StressMemHits    = "core.stresscache.mem_hits"
	StressMemMisses  = "core.stresscache.mem_misses"
	StressDiskHits   = "core.stresscache.disk_hits"
	StressDiskMisses = "core.stresscache.disk_misses"
	StressDiskBad    = "core.stresscache.disk_corrupt"
	CharHits         = "core.charcache.hits"
	CharMisses       = "core.charcache.misses"

	// internal/serve — the EM-analysis job server. Submitted counts every
	// accepted POST (dedup'd or not); Solves counts actual engine
	// executions, so submitted - dedup hits = solves + failures.
	// QueueDepth and JobsActive are gauges (+1 on enqueue/admit, -1 on
	// dequeue/terminal); LedgerRecords/LedgerErrors count run-ledger
	// appends; PersistErrors counts completed jobs whose manifest could not
	// be written to the result directory.
	ServeSubmitted         = "serve.jobs.submitted"
	ServeDedupCacheHits    = "serve.jobs.dedup_cache_hits"
	ServeDedupInflightHits = "serve.jobs.dedup_inflight_hits"
	ServeRejectedFull      = "serve.jobs.rejected_queue_full"
	ServeRejectedDraining  = "serve.jobs.rejected_draining"
	ServeCompleted         = "serve.jobs.completed"
	ServeFailed            = "serve.jobs.failed"
	ServeDeadlineExceeded  = "serve.jobs.deadline_exceeded"
	ServeSolves            = "serve.solves"
	ServeQueueDepth        = "serve.queue.depth"
	ServeJobsActive        = "serve.jobs.active"
	ServeJobSeconds        = "serve.job_seconds"
	ServeLedgerRecords     = "serve.ledger.records"
	ServeLedgerErrors      = "serve.ledger.errors"
	ServePersistErrors     = "serve.results.persist_errors"

	// internal/serve — distributed trial sharding. Dispatched counts every
	// shard dispatch attempt (first try and re-issues); RemoteRuns/LocalRuns
	// split completed shards by where they executed; Reissues counts
	// dispatches re-issued after a worker failure or timeout; CacheHits are
	// shards answered from the content-addressed partial cache without any
	// run; Errors counts failed dispatch attempts. Served/ServeSeconds
	// instrument the worker side of POST /v1/shards; MergeErrors counts
	// failed partial-manifest merges (the merge's duration is the "merge"
	// job stage, see ServeStageSeconds).
	ServeShardDispatched   = "serve.shard.dispatched"
	ServeShardRemoteRuns   = "serve.shard.remote_runs"
	ServeShardLocalRuns    = "serve.shard.local_runs"
	ServeShardReissues     = "serve.shard.reissues"
	ServeShardCacheHits    = "serve.shard.cache_hits"
	ServeShardErrors       = "serve.shard.errors"
	ServeShardServed       = "serve.shard.served"
	ServeShardServeSeconds = "serve.shard.serve_seconds"
	ServeShardMergeErrors  = "serve.shard.merge_errors"

	// internal/trace — live-ring occupancy, published as gauges at monitor
	// scrape time (the ring itself stays telemetry-free).
	TraceRingOccupancy = "trace.ring.occupancy"
	TraceRingCapacity  = "trace.ring.capacity"

	// internal/par — worker-pool utilization. BusyNanos is the summed
	// in-worker time of parallel dispatches; WallNanos is the summed
	// wall-clock time of those dispatches weighted by the worker count, so
	// busy/wall is the fleet utilization.
	ParRuns      = "par.runs"
	ParBlocks    = "par.blocks"
	ParBusyNanos = "par.busy_nanos"
	ParWallNanos = "par.weighted_wall_nanos"
)

// ServeStageSeconds names the per-stage job-latency histogram of one
// executor stage ("queue-wait", "resolve", "compile", "factorize", "screen",
// "mc", "manifest", …). The label suffix follows the registry's metric-label
// convention — `base{key=value}` — which the Prometheus exposition writer
// renders as a label pair, so every stage is one series of the single
// emvia_serve_stage_seconds family.
func ServeStageSeconds(stage string) string {
	return ServeStageFamily + "{stage=" + stage + "}"
}

// ServeStageFamily is the base of the ServeStageSeconds histograms, the
// family /status reads per stage through Registry.HistogramFamily.
const ServeStageFamily = "serve.stage_seconds"

// PrecondFallbacks names the counter of automatic preconditioner choices
// that fell back from IC(0), by the preconditioner used instead: "jacobi"
// (the IC(0) factorization broke down) or "identity" (Jacobi was rejected
// too).
func PrecondFallbacks(to string) string {
	return "solver.precond_fallbacks{to=" + to + "}"
}

// CascadeFallbacks names the counter of cascade rebases — a trial that
// refactors a private copy of the grid with its failed arrays open and
// restarts the cascade on it — by reason: "rank" (the update rank reached
// its cap) or "pivot" (an opening left a terminal hanging on the gmin leak).
func CascadeFallbacks(reason string) string {
	return "pdn.cascade.fallbacks{reason=" + reason + "}"
}

// Derived-metric names (computed at snapshot time, never stored).
const (
	MCTrialsPerSecond = "mc.trials_per_second"
	ParUtilization    = "par.worker_utilization"
	// The three disk-lookup rates partition every persistent stress-cache
	// lookup: hit + miss + corrupt = 1. Splitting miss from corrupt matters
	// operationally — a rising corrupt rate means damaged or stale cache
	// files being silently recomputed, not just a cold cache.
	StressDiskHitRate     = "core.stresscache.disk_hit_rate"
	StressDiskMissRate    = "core.stresscache.disk_miss_rate"
	StressDiskCorruptRate = "core.stresscache.disk_corrupt_rate"
)
