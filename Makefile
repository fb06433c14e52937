GO ?= go

.PHONY: build test check lint bench bench-snapshot

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static analysis plus the race detector over every
# package with parallel execution — the Monte-Carlo loops sharing solver
# state, the via-array Monte Carlo's per-worker systems, the parallel FEA
# pipeline (pool, assembly, CG kernels, caches) and the atomic file writer
# the caches share — and over the root determinism tests, whose serial
# mc.Run reference runs through the same trial dispatcher as the parallel
# runs it is compared with, and the live-ring test, whose two workers
# publish trial summaries into one ring. emsweep's small sweep runs its
# knob goroutines over one shared analyzer memo; its -conc 1 vs 2
# comparison (about two minutes under the race detector) stays out.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/mc ./internal/pdn ./internal/par ./internal/fem \
	    ./internal/solver ./internal/sparse ./internal/core ./internal/atomicfile ./internal/spice \
	    ./internal/telemetry ./internal/trace ./internal/monitor ./internal/cliobs \
	    ./internal/steady ./internal/serve ./internal/viaarray
	$(GO) test -race -run 'TestDeterminismMatrix|TestTraceDeterminism|TestLiveRingDigest' .
	$(GO) test -race -run 'TestSweepSharesStressMemo' ./cmd/emsweep

# lint checks gofmt and runs staticcheck if it is on PATH (CI installs a
# pinned version; locally it is optional) on top of go vet.
lint:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

# bench runs the paper-figure benchmarks with the fixed snapshot protocol
# (see scripts/bench_snapshot.sh and BENCH_1.json / BENCH_2.json). After its
# first op a GridSolve tier reuses the grid pattern's ordering and symbolic
# analysis from the solver's symbolic memo, so it measures the warm pristine
# solve; BenchmarkSupernodalColdFactor in internal/solver times the cold
# path. The large GridSolve tiers (nx100/nx200) only run via bench-snapshot,
# which measures them at a reduced -benchtime. BenchmarkFEASolve (a full-mesh 4×4 cold FEA, ~0.2 s per op)
# runs at 10x; BenchmarkIC0 times the IC(0) factor and sweeps on their own.
bench:
	$(GO) test -run '^$$' \
	    -bench 'BenchmarkFig10GridCDF|BenchmarkTable2GridTTF|BenchmarkSparseCholeskyFactorSupernodal|BenchmarkFig1StressProfile|BenchmarkFig6Patterns|BenchmarkFig7ArraySize|BenchmarkFEAWorkers|BenchmarkStressCacheWarm' \
	    -benchmem -benchtime=100x -count=1 .
	$(GO) test -run '^$$' \
	    -bench 'BenchmarkGridSolve/^nx(10|20|40|64)$$' \
	    -benchmem -benchtime=100x -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkFEASolve' -benchmem -benchtime=10x -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkIC0' -benchmem -benchtime=100x -count=1 ./internal/solver

bench-snapshot:
	sh scripts/bench_snapshot.sh BENCH_snapshot.json
