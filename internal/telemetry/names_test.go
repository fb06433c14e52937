package telemetry

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current writer")

// The metric names the tree registers, by the kind it records them as: every
// name of names.go, plus every label value the tree passes to the labeled-name
// helpers.
var (
	inTreeCounters = []string{
		CGSolves, CGIterations,
		DenseFactorizations, DenseUpdates, DenseDowndates, DenseSolves,
		SparseFactorizations, SparseUpdates, SparseDowndates, SparseSolves,
		SpiceCompiles, SpiceResets, SpiceSparseSolves,
		MCTrials, MCCandidateComponents, MCPrunedComponents,
		CascadeSteps, CascadeResponseHits, CascadeResponseMisses,
		SteadyScreens, SteadyMortalVias, SteadyImmortalVias,
		FEMSolves,
		StressMemHits, StressMemMisses, StressDiskHits, StressDiskMisses, StressDiskBad,
		CharHits, CharMisses,
		ServeSubmitted, ServeDedupCacheHits, ServeDedupInflightHits,
		ServeRejectedFull, ServeRejectedDraining, ServeCompleted, ServeFailed,
		ServeDeadlineExceeded, ServeSolves, ServeLedgerRecords, ServeLedgerErrors,
		ServePersistErrors,
		ServeShardDispatched, ServeShardRemoteRuns, ServeShardLocalRuns,
		ServeShardReissues, ServeShardCacheHits, ServeShardErrors, ServeShardServed,
		ServeShardMergeErrors,
		ParRuns, ParBlocks, ParBusyNanos, ParWallNanos,
		PrecondFallbacks("jacobi"), PrecondFallbacks("identity"),
		CascadeFallbacks("rank"), CascadeFallbacks("pivot"),
		SparseSymbolicHits, SparseSymbolicMisses,
	}
	inTreeGauges = []string{
		ServeQueueDepth, ServeJobsActive, TraceRingOccupancy, TraceRingCapacity,
	}
	inTreeHistograms = []string{
		CGItersPerSolve, SpiceFactorSeconds,
		MCFailuresPerTrial, MCTrialSeconds, MCFailStepSeconds, MCRunSeconds,
		SteadyScreenSeconds,
		FEMAssemblySeconds, FEMSolveSeconds, FEMStressSeconds,
		ServeJobSeconds, ServeShardServeSeconds,
		ServeStageSeconds("admit"), ServeStageSeconds("queue-wait"),
		ServeStageSeconds("resolve"), ServeStageSeconds("compile"),
		ServeStageSeconds("factorize"), ServeStageSeconds("screen"),
		ServeStageSeconds("mc"), ServeStageSeconds("manifest"),
		ServeStageSeconds("dispatch"), ServeStageSeconds("shard-wait"),
		ServeStageSeconds("merge"),
	}
	// Derived names are computed by Snapshot and never registered.
	derivedNames = []string{
		MCTrialsPerSecond, ParUtilization,
		StressDiskHitRate, StressDiskMissRate, StressDiskCorruptRate,
	}
)

// inTreeRegistry registers every in-tree metric and records fixed values:
// counter i holds i+1, gauge i holds 1.25(i+1), histogram i observes
// 1e-3(i+1), 0.5 and 3(i+1), except every fifth, which stays empty.
func inTreeRegistry() *Registry {
	r := New()
	for i, name := range inTreeCounters {
		r.Counter(name).Add(int64(i + 1))
	}
	for i, name := range inTreeGauges {
		r.Gauge(name).Set(1.25 * float64(i+1))
	}
	for i, name := range inTreeHistograms {
		h := r.Histogram(name)
		if i%5 == 4 {
			continue
		}
		for _, v := range []float64{1e-3 * float64(i+1), 0.5, 3 * float64(i+1)} {
			h.Observe(v)
		}
	}
	return r
}

// TestNamesCoverNamesGo: every string constant of names.go is listed above,
// so the golden below exposes every metric the tree can register.
func TestNamesCoverNamesGo(t *testing.T) {
	listed := make(map[string]bool)
	for _, l := range [][]string{inTreeCounters, inTreeGauges, inTreeHistograms, derivedNames} {
		for _, name := range l {
			listed[name] = true
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, v := range spec.Values {
			lit, ok := v.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			s, _ := strconv.Unquote(lit.Value)
			if !listed[s] && s != ServeStageFamily {
				t.Errorf("names.go constant %s = %q is not in the in-tree metric lists", spec.Names[i].Name, s)
			}
		}
		return true
	})
}

// TestWritePrometheusGolden pins the exposition of every in-tree metric to
// testdata/metrics.golden byte for byte (go test -run Golden -update
// rewrites it).
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := inTreeRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, buf.Bytes())
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("/metrics exposition differs from %s:\n%s", golden, buf.Bytes())
	}
}
