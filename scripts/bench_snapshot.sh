#!/bin/sh
# bench_snapshot.sh — run the paper-figure benchmarks and write a JSON
# snapshot of ns/op, B/op and allocs/op per benchmark.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# The snapshot protocol is fixed so numbers recorded across commits — e.g.
# the baseline/current sections of BENCH_1.json and BENCH_2.json — are
# comparable: the grid benchmarks and the small GridSolve tiers (nx10–nx64,
# a cold pristine solve of up to ~35 ms) run at -benchtime=100x, the large
# GridSolve tiers (nx100/nx200, ~0.1 s and ~0.6 s per op) at -benchtime=10x,
# and the FEA benchmarks at -benchtime=10x (their op is ~0.1–1 s), all with
# -count=1 -benchmem. GridSolve now times the cold solve a job pays on a
# freshly generated grid; the GridSolve entries of BENCH_1–BENCH_5 (tiers up
# to nx80/nx400) timed MaxViaCurrent on one pre-built grid and are not
# comparable. Parsing keys on the unit tokens, not field positions,
# because some benchmarks report extra custom metrics. The supernodal
# group reports SparseCholeskyFactorSupernodal_{Refactor,CloneRefactor,
# Solve16}; BENCH_4/BENCH_5 list the since-deleted Refactor_w1..w8 and
# SolveBatch16/SolveLoop16 instead.
set -eu
out="${1:-BENCH_snapshot.json}"
cd "$(dirname "$0")/.."
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

grid_benches='BenchmarkFig10GridCDF|BenchmarkTable2GridTTF|BenchmarkSparseCholeskyFactorSupernodal'
grid_small='BenchmarkGridSolve/^nx(10|20|40|64)$'
grid_large='BenchmarkGridSolve/^nx(100|200)$|BenchmarkGridMCScreened|BenchmarkGridMCSharded'
fea_benches='BenchmarkFig1StressProfile|BenchmarkFig6Patterns|BenchmarkFig7ArraySize|BenchmarkFEAWorkers|BenchmarkStressCacheWarm'

go test -run '^$' -bench "$grid_benches" \
    -benchmem -benchtime=100x -count=1 . | tee "$tmp"
go test -run '^$' -bench "$grid_small" \
    -benchmem -benchtime=100x -count=1 . | tee -a "$tmp"
go test -run '^$' -bench "$grid_large" \
    -benchmem -benchtime=10x -count=1 . | tee -a "$tmp"
go test -run '^$' -bench "$fea_benches" \
    -benchmem -benchtime=10x -count=1 . | tee -a "$tmp"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "cpu": "%s",\n' "$(awk -F: '/^cpu:/ {sub(/^[ \t]+/, "", $2); print $2; exit}' "$tmp")"
    printf '  "num_cpu": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
    printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"
    printf '  "protocol": "go test -run ^$ -bench <group> -benchmem -count=1 .; grid group (%s) and small GridSolve tiers (%s) at -benchtime=100x, large GridSolve tiers (%s) and FEA group (%s) at -benchtime=10x",\n' "$grid_benches" "$grid_small" "$grid_large" "$fea_benches"
    printf '  "benchmarks": {\n'
    awk '/^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        sub(/^Benchmark/, "", name)
        gsub(/\//, "_", name)
        ns = ""; bytes = ""; allocs = ""
        for (i = 3; i <= NF; i++) {
            if ($i == "ns/op") ns = $(i-1)
            else if ($i == "B/op") bytes = $(i-1)
            else if ($i == "allocs/op") allocs = $(i-1)
        }
        lines[++n] = sprintf("    \"%s\": {\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                             name, $2, ns, bytes, allocs)
    }
    END {
        for (i = 1; i <= n; i++)
            printf "%s%s\n", lines[i], (i < n ? "," : "")
    }' "$tmp"
    printf '  }\n'
    printf '}\n'
} > "$out"
echo "wrote $out"
